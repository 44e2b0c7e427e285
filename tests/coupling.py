"""A failure pattern's coupling system as repairs read it.

PM and IA decide and solve a pattern on the packed rows [A | b] that
CouplingCode._coupling_rows writes, reduced by gf._reduce_packed: PM's
_repairable at e >= 4 and IA's plan compile reduce exactly these rows.
Tests of the coupling identities take A, its rank and its determinant
here, and the known terms from _pool_decoder's weights, the K that IA's
compile ORs in. Only the tests of the coupling_system/assemble_multi views
themselves call those views.
"""

from typing import NamedTuple

from regenrepair.framework import dependent_pairs, unknown_pairs
from regenrepair.gf import _reduce_packed, _unpack_rows


class Coupling(NamedTuple):
    """A pattern's coupling matrix A: its unknowns in unknown_pairs order,
    its packed rows as built, its rank and determinant, and the transfers
    whose columns got no pivot. A unpacks the rows only when read; b is zero
    with no transfers, so its lane is left out."""

    field: object
    pairs: list
    rows: list
    rank: int
    det: int
    dependent: tuple

    @property
    def A(self):
        return _unpack_rows(self.field, self.rows, len(self.pairs))


def pattern_pool(code, failed, helpers=None):
    """The sorted distinct failed nodes and the pool the rows are built over:
    failed plus helpers, by default the first d-e+1 live nodes that
    condition_check vets (IA's every survivor, so its pool is every node)."""
    failed = tuple(sorted(set(failed)))
    if helpers is None:
        helpers = code.default_helpers(code.node_ids(), failed, code.d + 1 - len(failed))
    return failed, frozenset(failed + tuple(helpers))


def coupling(code, failed, helpers=None):
    """The Coupling of a pattern over its pool: the rows from
    _coupling_rows, reduced once below the pivots, as PM's _repairable
    reduces them, on a copy."""
    failed, pool = pattern_pool(code, failed, helpers)
    pairs, rows = code._coupling_rows(failed, pool)
    reduced = list(rows)
    pivots, det = _reduce_packed(code.field, reduced, len(rows) + 1, len(rows), False)
    return Coupling(code.field, pairs, rows, len(pivots), det, tuple(dependent_pairs(pairs, pivots)))


def known_terms(code, failed, helpers=None):
    """{(x, y): {helper: weight}}: the nonzero weights projection_y . c_{x,h}
    of x's decoder table over the pool, the helpers' part of b(x, y)."""
    failed, pool = pattern_pool(code, failed, helpers)
    known = {}
    for x, y in unknown_pairs(failed):
        columns = code._pool_decoder(x, pool).items()
        known[(x, y)] = {h: w[y - 1] for h, (_, w) in columns if h not in failed and w[y - 1]}
    return known
