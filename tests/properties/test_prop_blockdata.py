"""Property-based tests for byte-level block data (repro.mem.block)."""

from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.checker import _block_bytes
from repro.mem.block import BlockData
from repro.mem.nvmm import NVMMedia

offsets = st.integers(min_value=0, max_value=63)
bytes_ = st.integers(min_value=0, max_value=255)
words = st.integers(min_value=0, max_value=(1 << 64) - 1)
sizes = st.sampled_from([1, 2, 4, 8])


@given(st.dictionaries(offsets, bytes_))
def test_write_read_roundtrip(mapping):
    d = BlockData()
    for off, val in mapping.items():
        d.write_word(off, val, 1)
    for off, val in mapping.items():
        assert d.read(off) == val


@given(words, offsets, sizes)
def test_word_roundtrip(value, offset, size):
    d = BlockData()
    masked = value & ((1 << (8 * size)) - 1)
    d.write_word(offset, value, size)
    assert d.read_word(offset, size) == masked


@given(st.dictionaries(offsets, bytes_), st.dictionaries(offsets, bytes_))
def test_merge_right_operand_wins(a_map, b_map):
    a = BlockData(dict(a_map))
    b = BlockData(dict(b_map))
    a.merge_from(b)
    for off in set(a_map) | set(b_map):
        expected = b_map.get(off, a_map.get(off, 0))
        assert a.read(off) == expected


@given(st.dictionaries(offsets, bytes_), offsets)
def test_copy_equal_but_independent(mapping, offset):
    a = BlockData(dict(mapping))
    b = a.copy()
    assert a == b
    b.write_word(offset, (b.read(offset) + 1) % 256, 1)
    assert a != b
    assert a.read(offset) == mapping.get(offset, 0)
    assert dict(a.bytes) == mapping
    a.merge_from(BlockData({offset: b.read(offset) ^ 0xFF}))
    assert b.read(offset) == (mapping.get(offset, 0) + 1) % 256


@given(st.dictionaries(offsets, bytes_))
def test_equality_ignores_explicit_zeros(mapping):
    a = BlockData(dict(mapping))
    b = BlockData({k: v for k, v in mapping.items() if v != 0})
    assert a == b


@given(st.dictionaries(offsets, bytes_), st.dictionaries(offsets, bytes_))
def test_merge_is_associative_with_self(a_map, b_map):
    """merge(merge(x, a), b) == merge(x, merge(a, b)) for the overlay op."""
    x1 = BlockData()
    x1.merge_from(BlockData(dict(a_map)))
    x1.merge_from(BlockData(dict(b_map)))

    ab = BlockData(dict(a_map))
    ab.merge_from(BlockData(dict(b_map)))
    x2 = BlockData()
    x2.merge_from(ab)
    assert x1 == x2


# ----------------------------------------------------------------------
# Differential test: the packed form against a byte-dict reference model
# ----------------------------------------------------------------------

SLOTS = 3
BASE = 0x10000
slots = st.integers(min_value=0, max_value=SLOTS - 1)
steps = st.lists(st.one_of(
    st.tuples(st.just("write"), slots, offsets, st.integers(-512, 512)),
    sizes.flatmap(lambda n: st.tuples(
        st.just("write_word"), slots,
        st.integers(min_value=0, max_value=64 - n), words, st.just(n))),
    st.tuples(st.just("merge_from"), slots, slots),
    st.tuples(st.just("copy"), slots, slots),
    st.tuples(st.just("torn"), slots, st.integers(min_value=0, max_value=64)),
), max_size=30)


def _ref_raw(ref):
    """The 64 bytes a reference block reads as (unwritten bytes are 0)."""
    return bytes(ref.get(off, 0) for off in range(64))


def _ref_stream(baddr, ref):
    """The fingerprint stream of the byte-dict form: ``B``, the address,
    then an (offset, byte) pair per written byte in offset order."""
    return b"B" + baddr.to_bytes(8, "little") + bytes(
        chain.from_iterable(sorted(ref.items())))


def _check_against(blk, ref):
    raw = _ref_raw(ref)
    for off in range(64):
        assert blk.read(off) == raw[off]
    for size in (1, 2, 4, 8):
        for off in range(64 - size + 1):
            assert blk.read_word(off, size) == int.from_bytes(
                raw[off:off + size], "little")
    assert bool(blk) == bool(ref)
    assert list(blk.bytes.items()) == sorted(ref.items())
    assert _block_bytes(BASE, blk) == _ref_stream(BASE, ref)


@settings(deadline=None)
@given(steps)
def test_packed_form_matches_byte_dict_model(program):
    blocks = [BlockData() for _ in range(SLOTS)]
    refs = [{} for _ in range(SLOTS)]
    media = NVMMedia(BASE, 1 << 12)
    media_ref = {}
    for step in program:
        op, dst = step[0], step[1]
        if op == "write":
            _, _, off, value = step
            blocks[dst].write_word(off, value, 1)
            refs[dst][off] = value & 0xFF
        elif op == "write_word":
            _, _, off, value, size = step
            blocks[dst].write_word(off, value, size)
            for i in range(size):
                refs[dst][off + i] = (value >> (8 * i)) & 0xFF
        elif op == "merge_from":
            blocks[dst].merge_from(blocks[step[2]])
            refs[dst].update(refs[step[2]])
        elif op == "copy":
            blocks[dst] = blocks[step[2]].copy()
            refs[dst] = dict(refs[step[2]])
        else:  # a torn media write keeps the bytes below ``keep``
            keep = step[2]
            media.write_block_torn(BASE, blocks[dst], keep)
            media_ref.update(
                {off: v for off, v in refs[dst].items() if off < keep})
            _check_against(media.peek_block(BASE), media_ref)
        _check_against(blocks[dst], refs[dst])
    for i in range(SLOTS):
        _check_against(blocks[i], refs[i])
        for j in range(SLOTS):
            assert (blocks[i] == blocks[j]) == (
                _ref_raw(refs[i]) == _ref_raw(refs[j]))
