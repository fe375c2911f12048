import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_opt import browsing as browsing_module
from placement_opt import (
    EnumerationUnsupportedError,
    ExplicitBrowsing,
    LineBrowsing,
    SamplerBrowsing,
    browsing_from_spec,
    full_support,
    singleton_uniform,
)


def test_point_mass_always_returns_its_set():
    browsing = ExplicitBrowsing([({0, 1}, 1.0)])
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert browsing.sample(rng) == frozenset({0, 1})


def test_line_sampling_frequency():
    browsing = LineBrowsing([0.5, 0.5])
    rng = np.random.default_rng(1)
    draws = [browsing.sample(rng) for _ in range(100_000)]
    freq = sum(1 for s in draws if s == frozenset({0})) / len(draws)
    assert 0.49 <= freq <= 0.51


def test_sampling_is_deterministic_given_seed():
    browsing = LineBrowsing([0.2, 0.3, 0.4])
    first = [browsing.sample(np.random.default_rng(7)) for _ in range(1)]
    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    assert [browsing.sample(a) for _ in range(50)] == [
        browsing.sample(b) for _ in range(50)
    ]
    assert first[0] == browsing.sample(np.random.default_rng(7))


def test_line_samples_are_prefixes():
    browsing = LineBrowsing([0.1, 0.2, 0.3, 0.2])
    rng = np.random.default_rng(2)
    for _ in range(500):
        drawn = browsing.sample(rng)
        assert drawn == frozenset(range(len(drawn)))


def test_line_support_enumeration():
    browsing = LineBrowsing([0.3, 0.7])
    assert browsing.support() == [
        (frozenset({0}), 0.3),
        (frozenset({0, 1}), 0.7),
    ]


def test_line_residual_mass_goes_to_empty_set():
    browsing = LineBrowsing([0.25, 0.25])
    support = dict(browsing.support())
    assert support[frozenset()] == pytest.approx(0.5)
    assert sum(support.values()) == pytest.approx(1.0, abs=1e-9)


def test_explicit_merges_duplicates():
    browsing = ExplicitBrowsing([([0], 0.25), ((0,), 0.25), ([1, 0], 0.5)])
    assert browsing.support() == [
        (frozenset({0}), 0.5),
        (frozenset({0, 1}), 0.5),
    ]


def test_sampler_browsing_cannot_enumerate():
    browsing = SamplerBrowsing(lambda rng: {int(rng.integers(0, 3))})
    with pytest.raises(EnumerationUnsupportedError):
        browsing.support()
    rng = np.random.default_rng(3)
    assert browsing.sample(rng) <= {0, 1, 2}
    a = [browsing.sample(np.random.default_rng(5)) for _ in range(20)]
    b = [browsing.sample(np.random.default_rng(5)) for _ in range(20)]
    assert a == b


def test_singleton_uniform():
    browsing = singleton_uniform(2)
    assert browsing.support() == [
        (frozenset({0}), 0.5),
        (frozenset({1}), 0.5),
    ]
    assert singleton_uniform(1).support() == [(frozenset({0}), 1.0)]
    probs = [p for _, p in singleton_uniform(4).support()]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        singleton_uniform(0)


def test_full_support_is_a_point_mass_on_all_locations():
    browsing = full_support(3)
    assert browsing.support() == [(frozenset({0, 1, 2}), 1.0)]


def test_support_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        size = int(rng.integers(1, 6))
        probs = rng.dirichlet(np.ones(size))
        sets = rng.choice(2**4, size=size, replace=False)
        browsing = ExplicitBrowsing(
            [([j for j in range(4) if mask >> j & 1], float(p)) for mask, p in zip(sets, probs)]
        )
        assert sum(p for _, p in browsing.support()) == pytest.approx(1.0, abs=1e-9)


def test_empirical_matches_support_in_total_variation():
    rng = np.random.default_rng(6)
    masks = rng.choice(2**6, size=8, replace=False)
    probs = rng.dirichlet(np.ones(8) * 2)
    browsing = ExplicitBrowsing(
        [([j for j in range(6) if mask >> j & 1], float(p)) for mask, p in zip(masks, probs)]
    )
    counts: dict[frozenset, int] = {}
    draws = 100_000
    sample_rng = np.random.default_rng(8)
    for _ in range(draws):
        s = browsing.sample(sample_rng)
        counts[s] = counts.get(s, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(s, 0) / draws - p) for s, p in browsing.support()
    )
    assert tv <= 0.01


def test_validation_errors():
    with pytest.raises(ValueError):
        ExplicitBrowsing([([0], 0.5)])  # does not sum to 1
    with pytest.raises(ValueError):
        ExplicitBrowsing([([0], -0.1), ([1], 1.1)])
    with pytest.raises(ValueError):
        LineBrowsing([0.8, 0.4])  # sums beyond 1
    with pytest.raises(ValueError):
        LineBrowsing([-0.1, 0.5])
    with pytest.raises(ValueError):
        LineBrowsing([])
    with pytest.raises(ValueError, match="support probabilities"):
        ExplicitBrowsing([([0], "1.0")])
    with pytest.raises(ValueError, match="support probabilities: expected a number"):
        ExplicitBrowsing([([0], [0.5]), ([1], [0.5])])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ExplicitBrowsing([([0, -1], 1.0)]), "location indices must be nonnegative, got -1"),
        (lambda: full_support(0), "need at least one location"),
    ],
    ids=["negative-explicit-location", "full-support-of-nothing"],
)
def test_browsing_rejects_locations_below_zero_or_none(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "location, expected",
    [(2.0, 2), (np.int64(2), 2), (2.7, "2.7"), ("2", "'2'"), (True, "True")],
    ids=["integral-float", "numpy-int", "fraction", "quoted", "bool"],
)
def test_sampler_reads_locations_as_json_does(location, expected):
    # the rule ExplicitBrowsing applies to JSON locations, for single and block draws
    browsing = SamplerBrowsing(lambda rng: [0, location])
    if isinstance(expected, int):
        single = browsing.sample(np.random.default_rng(0))
        assert single == {0, expected} and all(type(j) is int for j in single)
        sets, index = browsing.sample(np.random.default_rng(0), 3)
        assert sets == [single] and index.tolist() == [0, 0, 0]
        return
    message = f"location must be an integer, got {expected}"
    with pytest.raises(ValueError, match=message):
        browsing.sample(np.random.default_rng(0))
    with pytest.raises(ValueError, match=message):
        browsing.sample(np.random.default_rng(0), 3)


def test_browsing_spec_round_trip():
    for browsing in [
        LineBrowsing([0.2, 0.5, 0.1]),
        ExplicitBrowsing([([0], 0.4), ([0, 2], 0.6)]),
        singleton_uniform(3),
    ]:
        spec = browsing.to_spec()
        assert browsing_from_spec(spec).to_spec() == spec
    with pytest.raises(ValueError):
        browsing_from_spec({"type": "mystery"})
    with pytest.raises(ValueError):
        SamplerBrowsing(lambda rng: set()).to_spec()


# ---------------------------------------------------------------------------
# block draws: sample(rng, size) == (sets, index) of the single draws

_weights = st.lists(
    st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=8
).filter(lambda w: sum(w) > 0)


@st.composite
def _line(draw):
    weights = draw(_weights)  # the last weight is the visit-nothing residual
    total = sum(weights)
    return LineBrowsing([w / total for w in weights[:-1]] or [1.0])


@st.composite
def _explicit(draw):
    weights = draw(_weights)
    sets = draw(
        st.lists(st.sets(st.integers(0, 5), max_size=4), min_size=len(weights),
                 max_size=len(weights))
    )
    total = sum(weights)
    return ExplicitBrowsing([(s, w / total) for s, w in zip(sets, weights)])


@st.composite
def _sampler(draw):
    m = draw(st.integers(1, 6))
    q = draw(st.floats(0.0, 1.0))
    return SamplerBrowsing(lambda rng: np.flatnonzero(rng.random(m) < q))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    browsing=st.one_of(_line(), _explicit(), _sampler()),
    size=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_sample_equals_single_draws(browsing, size, seed):
    block, single = np.random.default_rng(seed), np.random.default_rng(seed)
    sets, index = browsing.sample(block, size)
    assert isinstance(sets, list) and len(set(sets)) == len(sets)
    assert index.dtype == np.intp and len(index) == size
    assert [sets[i] for i in index] == [browsing.sample(single) for _ in range(size)]
    assert block.bit_generator.state == single.bit_generator.state
    assert browsing.sample(block) == browsing.sample(single)


def test_empty_block_draws_nothing():
    for browsing in [
        LineBrowsing([0.3, 0.5]),
        singleton_uniform(3),
        SamplerBrowsing(lambda rng: [int(rng.integers(0, 4))]),
    ]:
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        _, index = browsing.sample(rng, 0)
        assert len(index) == 0
        assert rng.bit_generator.state == before


def test_line_block_returns_the_prebuilt_prefix_sets():
    browsing = LineBrowsing([0.2, 0.3, 0.4])
    browsing.sample(np.random.default_rng(0))
    browsing.support()
    assert "_guide" not in vars(browsing)  # only a block draw builds the table
    sets, _ = browsing.sample(np.random.default_rng(0), 200)
    assert sets is browsing._sets


# ---------------------------------------------------------------------------
# guide-table block draws == searchsorted on the same uniforms, at every edge


class _Uniforms:
    """Stand-in generator whose ``random(size)`` returns the given uniforms
    and whose ``random()`` returns the first of them."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        if size is None:
            return float(self.u[0])
        assert size == len(self.u)
        return self.u.copy()


def _edge_uniforms(cum):
    """0, the largest uniform below 1, every cumulative value with both of
    its neighbours, and every edge of a 2**16-bin grid (which holds the edges
    of every coarser power-of-two grid) with the double just below it."""
    edges = np.arange(1 << 16) / (1 << 16)
    u = np.concatenate((
        [0.0, 1.0 - 2.0**-53],
        cum, np.nextafter(cum, -1.0), np.nextafter(cum, 2.0),
        edges, np.nextafter(edges, -1.0),
    ))
    return np.unique(u[(0.0 <= u) & (u < 1.0)])


def _random_explicit(sets, seed):
    probs = np.random.default_rng(seed).dirichlet(np.ones(sets))
    return ExplicitBrowsing([([j], float(p)) for j, p in enumerate(probs)])


@pytest.mark.parametrize("browsing", [
    # zero residual and zero entries: repeated cumulative values on bin edges
    LineBrowsing([0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0]),
    # cumulative values one double below a bin edge, then a zero entry
    LineBrowsing([np.nextafter(0.25, 0.0), 0.0, 0.125, np.nextafter(0.625, 1.0), 0.0]),
    _random_explicit(300, 0),  # more than 4096 / 16 sets: more bins than the least
    _random_explicit(5000, 1),  # more than 65536 / 16 sets: bins at the clamp
], ids=["line-dyadic", "line-below-edges", "explicit-300", "explicit-5000"])
def test_block_lookup_equals_searchsorted_at_every_edge(browsing):
    _assert_block_lookup_equals_searchsorted(browsing, browsing_module._CELLS)


def test_guide_table_holds_at_most_cells_bins(monkeypatch):
    monkeypatch.setattr(browsing_module, "_CELLS", 1 << 13)
    browsing = _random_explicit(5000, 1)
    _assert_block_lookup_equals_searchsorted(browsing, 1 << 13)
    assert browsing._guide[1].size == 1 << 13


def _assert_block_lookup_equals_searchsorted(browsing, cells):
    u = _edge_uniforms(browsing._cum)
    sets, index = browsing.sample(_Uniforms(u), len(u))
    assert sets is browsing._sets and index.dtype == np.intp
    np.testing.assert_array_equal(index, np.searchsorted(browsing._cum, u, side="right"))
    # the table flags exactly the bins that a scaled cumulative value splits
    scaled, first, split = browsing._guide
    bins = first.size
    assert bins & (bins - 1) == 0 and min(max(16 * len(scaled), 4096), cells) <= bins <= cells
    inside = scaled[(scaled < bins) & (scaled != np.floor(scaled))]
    expected = np.zeros(bins, dtype=bool)
    expected[np.floor(inside).astype(np.intp)] = True
    np.testing.assert_array_equal(split, expected)


# ---------------------------------------------------------------------------
# a line lists and draws exactly its sets of positive probability


def test_line_draws_no_set_that_its_support_omits():
    # theta sums to 1 - 2**-53 and its last prefix has probability 0: the
    # largest uniform below 1 must not draw all 11 locations
    browsing = LineBrowsing([0.1] * 10 + [0.0])
    listed = [s for s, _ in browsing.support()]
    u = np.array([1.0 - 2.0**-53])
    single = browsing.sample(_Uniforms(u))
    sets, index = browsing.sample(_Uniforms(u), 1)
    assert single == sets[index[0]] == frozenset(range(10))
    assert single in listed


_theta_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False)), min_size=1, max_size=8
).filter(lambda w: sum(w) > 0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    weights=_theta_weights,
    last_zero=st.booleans(),
    residual=st.one_of(
        st.just(0.0), st.floats(1e-16, browsing_module._PROB_TOL), st.floats(0.01, 0.9)
    ),
)
def test_line_equals_explicit_browsing_of_its_prefixes(weights, last_zero, residual):
    if last_zero:
        weights = weights + [0.0]
    theta = np.array(weights) / sum(weights) * (1.0 - residual)
    line = LineBrowsing(theta)
    rest = max(0.0, 1.0 - float(theta.sum()))  # the line's residual, 0 when theta sums to 1
    explicit = ExplicitBrowsing(
        [(range(j + 1), float(p)) for j, p in enumerate(theta)] + [(frozenset(), rest)]
    )
    assert line.support() == explicit.support()
    assert (line._cum == explicit._cum).all() and len(line._cum) == len(explicit._cum)
    u = _edge_uniforms(line._cum)
    sets, index = line.sample(_Uniforms(u), len(u))
    explicit_sets, explicit_index = explicit.sample(_Uniforms(u), len(u))
    assert sets == explicit_sets and np.array_equal(index, explicit_index)
    listed = {s for s, _ in line.support()}
    assert {sets[i] for i in np.unique(index)} <= listed
