"""The package's public names: what `from smoothcode import *` gives."""

import smoothcode as sc


def test_all_is_sorted_unique_and_resolves():
    names = sc.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(sc, name) is not None


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from smoothcode import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sc.__all__


def test_tilted_container_is_gone():
    # the tilted column is read as exp(-ideal_real_lengths(sub, lam)), and
    # shannon_lengths takes (sub, lam) itself
    for name in ("TiltedDistribution", "tilted_distribution"):
        assert name not in sc.__all__
        assert not hasattr(sc, name)
        assert not hasattr(sc.codes, name)


def test_a_mixture_is_two_columns():
    # MixtureSpec holds the weights and the letter probabilities as columns
    assert "MixtureComponent" not in sc.__all__
    assert not hasattr(sc, "MixtureComponent")
    assert not hasattr(sc.distributions, "MixtureComponent")
    assert len(sc.__all__) == 54
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    assert spec.weights == (0.6, 0.4)
    assert spec.probs == ((0.5, 0.5), (0.89, 0.11))
