"""Enumeration kernel: bit-sliced search for the first countermodel.

Models are enumerated by world count, then relation bits, then valuation
bits, where bit strings are read most-significant-first in row-major
order (the layout of ``enumeration.relation_from_bits`` and
``enumeration.valuation_from_bits``).

Formulas arrive as postfix bytecode (see ``enumeration.compile_formula``)
and are evaluated over a block of relations and every valuation at once.
A block holds ``B = max(1, BLOCK_BITS // V)`` consecutive frame-accepted
relations of one world count, in relation-bit order, where
``V = 2^(atoms x worlds)`` is the number of valuations.  The value of a
formula is a list holding one int per world, whose bit ``k * V + v`` is
the formula's truth at that world in the block's ``k``-th relation under
valuation bits ``v``.  So the lowest set bit of a block's hits is the
first hit in the pinned order, and no int is longer than
``max(BLOCK_BITS, V)`` bits.
"""

from __future__ import annotations

from functools import cache
from operator import and_, or_, xor
from typing import Iterable, Iterator, NamedTuple

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
# atoms x worlds: a truth int holds one block, max(BLOCK_BITS, 2^(atoms x
# worlds)) bits at most, so 20 keeps every int within 128 KiB
MAX_VALUATION_BITS = 20
# a block holds BLOCK_BITS // 2^(atoms x worlds) relations, at least one
BLOCK_BITS = 1 << 15
# a (worlds, atoms, frame) key's blocks are kept when its relations times
# valuations fit in this many bits: every key up to 3 worlds and 3 atoms
CACHE_BITS = 1 << 18


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


def _decode(n: int, frame_mask: int) -> Iterator[int]:
    """The bits of every relation meeting the frame conditions, in
    relation-bit order.  Row ``i`` of a relation is ``n`` bits, world 0
    most significant."""
    masks = [sum(1 << j for j in range(n) if (r >> (n - 1 - j)) & 1) for r in range(1 << n)]
    full = (1 << n) - 1
    shifts = range(n * n - n, -1, -n)
    for rel in range(1 << (n * n)):
        if _frame_ok([masks[(rel >> s) & full] for s in shifts], n, frame_mask):
            yield rel


@cache
def atom_columns(
    n: int, atom_count: int, count: int = 1
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Per atom, per world: the int whose bit ``k * V + v`` is the atom's
    truth at that world under valuation bits ``v``, for ``k < count``; plus
    the mask of all ``count * V`` bits."""
    total = atom_count * n
    size = 1 << total  # valuations
    if count > 1:
        columns, every = atom_columns(n, atom_count)
        repunit = int("1".zfill(size) * count, 2)
        return tuple(tuple(c * repunit for c in column) for column in columns), every * repunit
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


class Block(NamedTuple):
    """Consecutive relations of one world count, evaluated together."""

    relations: tuple[int, ...]
    every: int  # all bits of the block
    columns: tuple[tuple[int, ...], ...]
    # per world i: (j, E, every ^ E) for each j with an edge i -> j in some
    # relation, where E's bits k * V .. k * V + V - 1 are set when the
    # block's k-th relation has that edge
    edges: tuple[tuple[tuple[int, int, int], ...], ...]


def blocks(n: int, atom_count: int, relations: Iterable[int]) -> Iterator[Block]:
    """The given relations of ``n`` worlds, in order, cut into blocks of
    ``max(1, BLOCK_BITS // V)``."""
    per = max(1, BLOCK_BITS // (1 << (atom_count * n)))
    chunk: list[int] = []
    for rel in relations:
        chunk.append(rel)
        if len(chunk) == per:
            yield _block(n, atom_count, tuple(chunk))
            chunk = []
    if chunk:
        yield _block(n, atom_count, tuple(chunk))


def _block(n: int, atom_count: int, rels: tuple[int, ...]) -> Block:
    columns, every = atom_columns(n, atom_count, len(rels))
    shifts = range(n * n - 1, -1, -1)  # of the pairs (i, j), row-major
    if len(rels) == 1:
        masks = [every if (rels[0] >> s) & 1 else 0 for s in shifts]
    else:  # V bits per relation, the last relation's first
        size = 1 << (atom_count * n)
        zero, one = "0" * size, "1" * size
        masks = [
            int("".join([one if (r >> s) & 1 else zero for r in reversed(rels)]), 2) for s in shifts
        ]
    edges = tuple(
        tuple((j, edge, every ^ edge) for j, edge in enumerate(masks[i * n : (i + 1) * n]) if edge)
        for i in range(n)
    )
    return Block(rels, every, columns, edges)


# the blocks of each (worlds, atoms, frame) key that fits CACHE_BITS
_BLOCKS: dict[tuple[int, int, int], tuple[Block, ...]] = {}


def _blocks_of(n: int, atom_count: int, frame_mask: int) -> Iterable[Block]:
    """A key's blocks, and with them its relations, are kept for the life
    of the process only when its relations times valuations fit in
    CACHE_BITS; any other key's are rebuilt on each search."""
    if n == MAX_WORLDS:
        # 2^25 relations: stream them rather than decode all first
        return blocks(n, atom_count, _decode(n, frame_mask))
    key = (n, atom_count, frame_mask)
    kept = _BLOCKS.get(key)
    if kept is None:
        relations = tuple(_decode(n, frame_mask))
        if len(relations) << (atom_count * n) > CACHE_BITS:
            return blocks(n, atom_count, relations)
        kept = _BLOCKS[key] = tuple(blocks(n, atom_count, relations))
    return kept


def evaluate(code: tuple[int, ...], block: Block) -> list[int]:
    """Per-world truth ints of ``code`` over ``block``."""
    _, every, columns, edges = block
    flip = every.__xor__
    stack: list = []
    push = stack.append
    # the connectives map C-level operators over the per-world ints: a
    # list comprehension would cost a Python frame per op
    for instr in code:
        op = instr & 7
        if op == OP_ATOM:
            push(columns[instr >> 3])
        elif op == OP_NOT:
            stack[-1] = list(map(flip, stack[-1]))
        elif op == OP_AND:
            y = stack.pop()
            stack[-1] = list(map(and_, stack[-1], y))
        elif op == OP_OR:
            y = stack.pop()
            stack[-1] = list(map(or_, stack[-1], y))
        elif op == OP_IFF:
            y = stack.pop()
            stack[-1] = list(map(flip, map(xor, stack[-1], y)))
        elif op == OP_BOX:
            x = stack[-1]
            out = []
            for pairs in edges:
                m = every
                for j, _, missing in pairs:
                    m &= x[j] | missing
                out.append(m)
            stack[-1] = out
        else:  # OP_DIA
            x = stack[-1]
            out = []
            for pairs in edges:
                m = 0
                for j, edge, _ in pairs:
                    m |= x[j] & edge
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
        size = 1 << (atom_count * n)
        for block in _blocks_of(n, atom_count, frame_mask):
            every = block.every
            held = every  # models in which every premise holds everywhere
            for code in premises:
                for x in evaluate(code, block):
                    held &= x
                if not held:
                    break
            else:
                values = evaluate(conclusion, block)
                everywhere = every
                for x in values:
                    everywhere &= x
                hit = held & ~everywhere
                if hit:
                    bit = (hit & -hit).bit_length() - 1
                    k, val = divmod(bit, size)
                    for w, x in enumerate(values):
                        if not (x >> bit) & 1:
                            return (n, block.relations[k], val, w)
    return None
