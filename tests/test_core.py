import numpy as np
import pytest

from placement_opt import (
    Instance,
    LineBrowsing,
    MnlModel,
    Product,
    canon,
    products_at,
    substream,
)


def test_products_at_merges_duplicates():
    assert products_at([2, 2, 5], {0, 1}) == frozenset({2})


def test_products_at_empty_locations():
    assert products_at([2, 2, 5], set()) == frozenset()


def test_products_at_plain_union():
    assert products_at([0, 1, 2], {0, 2}) == frozenset({0, 2})


def test_products_at_out_of_range():
    with pytest.raises(IndexError):
        products_at([0, 1], [2])


def test_products_at_size_and_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        slots = rng.integers(0, 4, size=m).tolist()
        small = set(int(j) for j in rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False))
        extra = set(int(j) for j in rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False))
        large = small | extra
        assert len(products_at(slots, large)) <= len(large)
        assert products_at(slots, small) <= products_at(slots, large)


def test_canon_sorts_and_dedupes():
    assert canon([3, 1, 3, 2]) == (1, 2, 3)
    assert canon([]) == ()


def test_product_validation():
    with pytest.raises(ValueError):
        Product(0, -1.0)
    with pytest.raises(ValueError):
        Product(-1, 1.0)


def test_constructors_reject_boolean_and_non_numeric_fields():
    with pytest.raises(ValueError, match="product id must be an integer"):
        Product(True, 2.0)
    with pytest.raises(ValueError, match="product id must be an integer"):
        Product(1.5, 2.0)
    with pytest.raises(ValueError, match="price must be a number"):
        Product(0, True)
    with pytest.raises(ValueError, match="price must be a number"):
        Product(0, "3")
    with pytest.raises(ValueError, match="price must be a number"):
        Product(0, np.True_)
    assert Product(np.int64(2), np.float64(1.5)) == Product(2, 1.5)
    products = [Product(0, 1.0)]
    model, browsing = MnlModel([1.0]), LineBrowsing([1.0])
    with pytest.raises(ValueError, match="m must be an integer, got True"):
        Instance(products, model, True, browsing)
    with pytest.raises(ValueError, match="m must be an integer"):
        Instance(products, model, 1.5, browsing)
    assert type(Instance(products, model, 1.0, browsing).m) is int


def test_instance_validation():
    products = [Product(0, 1.0), Product(1, 2.0)]
    inst = Instance(products, MnlModel([1.0, 1.0]), 2, LineBrowsing([0.4, 0.6]))
    assert inst.n == 2
    assert inst.i_star == 1
    with pytest.raises(ValueError):  # ids not dense
        Instance([Product(1, 1.0)], MnlModel([1.0]), 1, LineBrowsing([1.0]))
    with pytest.raises(ValueError):  # model covers a different catalog
        Instance(products, MnlModel([1.0]), 2, LineBrowsing([0.4, 0.6]))
    with pytest.raises(ValueError):  # browsing length mismatch
        Instance(products, MnlModel([1.0, 1.0]), 1, LineBrowsing([0.4, 0.6]))
    with pytest.raises(ValueError):
        Instance([], MnlModel([1.0]), 1, LineBrowsing([1.0]))


def test_i_star_prefers_lowest_id_on_ties():
    products = [Product(0, 5.0), Product(1, 5.0), Product(2, 1.0)]
    inst = Instance(products, MnlModel([1.0, 1.0, 1.0]), 1, LineBrowsing([1.0]))
    assert inst.i_star == 0


def test_substream_is_deterministic_and_name_separated():
    a1 = substream(42, "placement").random(4)
    a2 = substream(42, "placement").random(4)
    b = substream(42, "estimation").random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    with pytest.raises(ValueError):
        substream(-1, "placement")
