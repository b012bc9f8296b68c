"""noise.py against numpy, its oracle: the PCG64 seeding and outputs, the
normals of whole seeded streams, and every entry of the ziggurat's KI
and WI tables pinned by draws made to land on it."""

from collections import Counter

import pytest

import hxtwin.noise as noise
from hxtwin.noise import KI, MASK64, MASK128, PCG_MULTIPLIER, WI, pcg64_seed, ziggurat_normals

np = pytest.importorskip("numpy")

# the seeds of the shipped scenarios and of the tests, then seeds of one,
# two, three and five 32-bit words
SEEDS = [7, 11, 12, 42, 99, 0, 2**32, 2**64 + 3, 2**130 + 7]
N = 200_000


def numpy_generator(state: int, inc: int):
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def xsl_rr(state: int) -> int:
    w = (state >> 64 ^ state) & MASK64
    rot = state >> 122
    return (w >> rot | w << 64 - rot) & MASK64


@pytest.mark.parametrize("seed", SEEDS + [2**200 + 3])
def test_seeding_and_outputs_are_numpys(seed):
    state, inc = pcg64_seed(seed)
    assert numpy_generator(state, inc).bit_generator.state == np.random.PCG64(seed).state
    outputs = []
    for _ in range(1000):
        state = (state * PCG_MULTIPLIER + inc) & MASK128
        outputs.append(xsl_rr(state))
    assert outputs == np.random.PCG64(seed).random_raw(1000).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_normals_are_numpys_through_the_tail_and_the_wedge(seed, monkeypatch):
    # the tail takes log1p, the wedge exp: count their calls
    calls = Counter()

    def counted(name):
        f = getattr(noise, name)

        def call(v):
            calls[name] += 1
            return f(v)
        return call

    for name in ("exp", "log1p"):
        monkeypatch.setattr(noise, name, counted(name))
    assert noise.standard_normals(seed, N) == np.random.default_rng(seed).standard_normal(
        N).tolist()
    assert calls["log1p"] > 0 and calls["exp"] > 0, calls


def test_every_ki_and_wi_entry_is_numpys():
    # For each layer idx and sign, the next output r is made to carry
    # rabs = KI[idx] - 1 (inside the box: x = rabs WI[idx]) and
    # rabs = KI[idx] (the tail or the wedge): the state before it is the
    # LCG step inverted from a state whose XSL-RR output is r.
    inc = pcg64_seed(42)[1]
    inverse = pow(PCG_MULTIPLIER, -1, 1 << 128)
    mine, numpys = [], []
    for idx in range(256):
        for sign in (0, 1):
            for rabs in (KI[idx] - 1, KI[idx]):
                if rabs < 0:
                    continue
                r = 0b101 << 61 | rabs << 9 | sign << 8 | idx
                hi = (idx * 0x9E3779B97F4A7C15 + sign) & MASK64
                rot = hi >> 58
                lo = hi ^ (r << rot | r >> 64 - rot) & MASK64
                after = hi << 64 | lo
                assert xsl_rr(after) == r
                state = (after - inc) * inverse & MASK128
                mine += ziggurat_normals(state, inc, 2)
                numpys += numpy_generator(state, inc).standard_normal(2).tolist()
    assert len(mine) == 2 * (4 * 256 - 2)  # KI[1] is 0
    assert [x.hex() for x in mine] == [x.hex() for x in numpys]
    assert len(KI) == len(WI) == len(noise.FI) == 256


@pytest.mark.parametrize("seed", [-1, -2**70, 1.0, "7", None])
def test_a_seed_that_is_negative_or_not_an_int_is_named(seed):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative int, got {seed!r}$"):
        noise.standard_normals(seed, 2)
