import critgroup


def test_all_is_sorted_unique_and_resolves():
    names = critgroup.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(critgroup, name), name
