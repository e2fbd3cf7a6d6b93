"""The workloads as endless sequences of rounds.

Every round of a workload holds the same op types, each `weight` times;
the seed picks each op's pool point and the order of ops within the round.
A run measures whole rounds, so its mix of op types never depends on where
the clock stops.  Each op type walks its own seeded permutation of the pool
points on which it passes today, so no input of a type repeats until its
pool is used up, and a round's ops do not all share one point's cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator

import cases


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _solve(tr, t: cases.OpType, data, pool: list, i: int, values: dict) -> Op:
    """Solve op type t at pool point i, checked against its reference."""
    fn, x, ref = cases.solver(t), cases.point(pool[i]), values[f"{t.key}/{i}"]

    def run():
        with tr.span(f"quadrature.{t.map}", n=t.n):
            return fn(data, x)

    return Op(f"{t.key}/{i}", run, lambda value: cases.within(value, ref, t.tol))


def _rounds(ref: dict, rng, tr, types: list[cases.OpType]) -> Iterator[list[Op]]:
    data = {(t.data, t.n): tr.wrap(cases.make_data(t.data, t.n)) for t in types}
    walks = []
    for t in types:
        pool, values = cases.pool(ref, t)
        ok = cases.usable_points(values, [t], len(pool))
        if ok:
            walks.append((t, pool, values, [ok[i] for i in rng.permutation(len(ok))]))
    for r in count():
        ops = [_solve(tr, t, data[(t.data, t.n)], pool, order[(r * t.weight + j) % len(order)],
                      values)
               for t, pool, values, order in walks for j in range(t.weight)]
        yield [ops[i] for i in rng.permutation(len(ops))]


def kink_cut(ref: dict, rng, tr) -> Iterator[list[Op]]:
    """The six n = 3 solves (u and v, M = 0, 1, 2) at 1e-10 and the two
    n = 4 solves (u and v, M = 0) at 1e-7."""
    return _rounds(ref, rng, tr, cases.kink_types(3) + cases.kink_types(4))


def plain_grid(ref: dict, rng, tr) -> Iterator[list[Op]]:
    """Every plain op type, `weight` times a round."""
    return _rounds(ref, rng, tr, cases.plain_types())


WORKLOADS = {"kink-cut": kink_cut, "plain-grid": plain_grid}
