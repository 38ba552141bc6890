"""Seeded inputs whose cost does not depend on the seed.

Runs made with different seeds are compared, so a seed may choose
*which* facts an instance holds but not *how much work* it is.  The
library's ``star_join_database`` draws every registration with a coin,
which moves one star-join batch by 18 % between seeds (27–40 ms at
32 students × 6 courses).  The functions here fix the quantities that set
the cost — how many courses each student takes, how many students each
course has, how many TAs there are, how many links each qRST node has —
and let the seed pick identities only.
"""

from __future__ import annotations

import random

from repro.core.database import Database
from repro.core.facts import Fact

FACULTIES = ("EE", "CS")


def star_instance(
    students: int, courses: int, degree: int, seed: int, ta_share: float = 0.4
) -> Database:
    """The running example's star schema with a regular registration graph.

    Every student takes exactly ``degree`` courses and every course has
    exactly ``students * degree / courses`` students (when that divides);
    exactly ``round(ta_share * students)`` students are TAs.  ``Stud``
    and ``Course`` are exogenous, ``TA`` and ``Reg`` endogenous, as in
    Example 2.3.
    """
    rng = random.Random(seed)
    database = Database()
    names = [f"c{index}" for index in range(courses)]
    for index, name in enumerate(names):
        database.add(Fact("Course", (name, FACULTIES[index % 2])), endogenous=False)
    order = list(range(students))
    rng.shuffle(order)
    tas = set(rng.sample(range(students), round(ta_share * students)))
    for position, student in enumerate(order):
        name = f"s{student}"
        database.add(Fact("Stud", (name,)), endogenous=False)
        if student in tas:
            database.add(Fact("TA", (name,)), endogenous=True)
        for step in range(degree):
            course = names[(position * degree + step) % courses]
            database.add(Fact("Reg", (name, course)), endogenous=True)
    return database


def qrst_instance(players: int, links: int, seed: int) -> Database:
    """A qRST game: ``R(i)``/``T(i)`` endogenous, ``S`` exogenous.

    Each left node links to exactly ``links`` right nodes, so the
    sampler's per-evaluation cost is the same for every seed while the
    link pattern (and hence the request key) differs.
    """
    rng = random.Random(seed)
    half = players // 2
    database = Database()
    for index in range(half):
        database.add(Fact("R", (index,)), endogenous=True)
        database.add(Fact("T", (index,)), endogenous=True)
    for left in range(half):
        for right in rng.sample(range(half), links):
            database.add(Fact("S", (left, right)), endogenous=False)
    return database


QRST = "q() :- R(x), S(x, y), T(y)"
