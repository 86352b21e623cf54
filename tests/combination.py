"""Test-side application of a combination, a tuple of (coeff, ModeOp) as
fock.combine returns it, operator by operator through ModeOp.apply, so it
checks fock.ImageTable.add and commutator_apply's right-hand sides from
outside them."""

from threepv.fock import FockState


def apply_combination(pairs, state):
    """The sum of c * op.apply(state) over the pairs (c, op)."""
    out = FockState()
    for c, op in pairs:
        out += op.apply(state).scale(c)
    return out
