"""Enumeration kernel: bit-sliced search for the first countermodel.

Models are enumerated by world count, then relation bits, then valuation
bits, where bit strings are read most-significant-first in row-major
order (the layout of ``enumeration.relation_from_bits`` and
``enumeration.valuation_from_bits``).

Formulas arrive as postfix bytecode (see ``enumeration.compile_formula``)
and are evaluated for one relation over every valuation at once: the
value of a formula is a list holding one int per world, whose bit ``v``
is the formula's truth at that world under valuation bits ``v``.
"""

from __future__ import annotations

from functools import cache

OP_ATOM = 0
OP_NOT = 1
OP_AND = 2
OP_OR = 3
OP_BOX = 4
OP_DIA = 5
OP_IFF = 6

FRAME_REFLEXIVE = 1
FRAME_SYMMETRIC = 2
FRAME_TRANSITIVE = 4
FRAME_EUCLIDEAN = 8
FRAME_SERIAL = 16

MAX_WORLDS = 5  # 2^25 relations; larger sweeps are out of reach anyway
# atoms x worlds: each truth int has 2^(atoms x worlds) bits, so 20 keeps
# every int within 128 KiB
MAX_VALUATION_BITS = 20


def _frame_ok(succ: list[int], n: int, frame_mask: int) -> bool:
    if frame_mask & FRAME_REFLEXIVE:
        for i in range(n):
            if not (succ[i] >> i) & 1:
                return False
    if frame_mask & FRAME_SERIAL:
        for i in range(n):
            if succ[i] == 0:
                return False
    if frame_mask & FRAME_SYMMETRIC:
        for i in range(n):
            for j in range(n):
                if ((succ[i] >> j) & 1) != ((succ[j] >> i) & 1):
                    return False
    if frame_mask & FRAME_TRANSITIVE:
        for i in range(n):
            si = succ[i]
            for j in range(n):
                if (si >> j) & 1 and succ[j] & ~si:
                    return False
    if frame_mask & FRAME_EUCLIDEAN:
        for i in range(n):
            si = succ[i]
            for j in range(n):
                if (si >> j) & 1 and si & ~succ[j]:
                    return False
    return True


def _decode(n: int, frame_mask: int):
    """(relation bits, successors per world) for every relation meeting the
    frame conditions, in relation-bit order.  Row ``i`` of a relation is
    ``n`` bits, world 0 most significant."""
    rows = [tuple(j for j in range(n) if (r >> (n - 1 - j)) & 1) for r in range(1 << n)]
    masks = [sum(1 << j for j in succ) for succ in rows]
    full = (1 << n) - 1
    shifts = range(n * n - n, -1, -n)
    for rel in range(1 << (n * n)):
        cut = [(rel >> s) & full for s in shifts]
        if _frame_ok([masks[r] for r in cut], n, frame_mask):
            yield rel, tuple(rows[r] for r in cut)


@cache
def _relations(n: int, frame_mask: int) -> tuple:
    return tuple(_decode(n, frame_mask))


@cache
def atom_columns(n: int, atom_count: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Per atom, per world: the int whose bit ``v`` is the atom's truth at
    that world under valuation bits ``v``; plus the all-valuations mask."""
    total = atom_count * n
    size = 1 << total  # valuations
    columns = []
    for a in range(atom_count):
        column = []
        for w in range(n):
            half = 1 << (total - 1 - (a * n + w))  # run length of equal bits
            # repeat the ones-over-zeros unit by doubling: shifts, not a
            # division, which is quadratic in the int's length
            bits, width = ((1 << half) - 1) << half, 2 * half
            while width < size:
                bits |= bits << width
                width *= 2
            column.append(bits)
        columns.append(tuple(column))
    return tuple(columns), (1 << size) - 1


def evaluate(
    code: tuple[int, ...], succ: tuple[tuple[int, ...], ...], columns: tuple, every: int
) -> list[int]:
    """Per-world truth ints of ``code`` under the relation ``succ``."""
    stack: list = []
    push = stack.append
    for instr in code:
        op = instr & 7
        if op == OP_ATOM:
            push(columns[instr >> 3])
        elif op == OP_NOT:
            stack[-1] = [every ^ x for x in stack[-1]]
        elif op == OP_AND:
            y = stack.pop()
            stack[-1] = [x & z for x, z in zip(stack[-1], y)]
        elif op == OP_OR:
            y = stack.pop()
            stack[-1] = [x | z for x, z in zip(stack[-1], y)]
        elif op == OP_IFF:
            y = stack.pop()
            stack[-1] = [every ^ x ^ z for x, z in zip(stack[-1], y)]
        elif op == OP_BOX:
            x = stack[-1]
            out = []
            for targets in succ:
                m = every
                for j in targets:
                    m &= x[j]
                out.append(m)
            stack[-1] = out
        else:  # OP_DIA
            x = stack[-1]
            out = []
            for targets in succ:
                m = 0
                for j in targets:
                    m |= x[j]
                out.append(m)
            stack[-1] = out
    return stack[-1]


def find_first(
    max_worlds: int,
    atom_count: int,
    frame_mask: int,
    premises: tuple[tuple[int, ...], ...],
    conclusion: tuple[int, ...],
) -> tuple[int, int, int, int] | None:
    """First (world_count, relation_bits, valuation_bits, failing_world)
    where every premise holds at every world, the frame conditions hold,
    and the conclusion fails at the returned (smallest) world; None if no
    such model exists within the budget."""
    if max_worlds > MAX_WORLDS:
        raise ValueError(f"enumeration supports at most {MAX_WORLDS} worlds")
    if atom_count * max_worlds > MAX_VALUATION_BITS:
        raise ValueError(f"enumeration supports at most {MAX_VALUATION_BITS} atoms x worlds")
    for n in range(1, max_worlds + 1):
        columns, every = atom_columns(n, atom_count)
        # 2^25 relations at the cap: stream them rather than decode all first
        relations = _relations(n, frame_mask) if n < MAX_WORLDS else _decode(n, frame_mask)
        for rel, succ in relations:
            held = every  # valuations under which every premise holds everywhere
            for code in premises:
                for x in evaluate(code, succ, columns, every):
                    held &= x
                if not held:
                    break
            else:
                values = evaluate(conclusion, succ, columns, every)
                everywhere = every
                for x in values:
                    everywhere &= x
                hit = held & ~everywhere
                if hit:
                    val = (hit & -hit).bit_length() - 1
                    for w, x in enumerate(values):
                        if not (x >> val) & 1:
                            return (n, rel, val, w)
    return None
