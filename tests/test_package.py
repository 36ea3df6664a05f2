import aoavi


def test_public_names_resolve_once_and_exclude_removed_helpers():
    names = aoavi.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(aoavi, name), name
    for removed in ("reparameterize_sample", "aoa_gradient_observed", "codebook_correlation"):
        assert removed not in names
        assert not hasattr(aoavi, removed)
