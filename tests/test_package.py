import majlat


def test_exports_are_sorted_unique_and_resolve():
    names = majlat.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(majlat, name)]
    assert missing == []
