"""Shared per-configuration caches.

A Workspace owns the radial tables plus every factorization and operator
block derived from one DomainConfig: the real constraint rows of each
angular-momentum sector, the slot table of the packed layout that every
mode shares, the assembled constrained-mode operators, the
whole-field operator that stacks modes 0..n_z on their first field-level
use (its stacks then back the mode operators' own, as views) and, once a
check asks, their strong blocks (the elliptic solves keep no per-mode
state). All caches are filled lazily and never invalidated.
"""

from .discretization import tables_for


class Workspace:
    """Container tying a DomainConfig to its derived numerical objects."""

    def __init__(self, config):
        self.config = config
        self.tables = tables_for(config)
        # j -> real constraint rows (r0, r1) on Zernike coefficients (stokesop._sector_rows)
        self.sector_rows = {}
        # the packed layout's slot table and its inverse (stokesop._slot_tables)
        self.slots = None
        # n >= 0 -> ModeOperator, filled by stokesop.mode_operator
        self.mode_ops = {}
        # modes 0..n_z stacked into one stokesop.FieldOperator on their
        # first field-level use (stokesop.field_operator), which replaces
        # their mode_ops entries by operators on views of its stacks
        self.field_op = None
        # n >= 0 -> (A, leak) of stokesop.strong_blocks, filled by the
        # verify criteria that read them
        self.strong = {}
