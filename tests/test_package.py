import fdwiretap


def test_all_exports_resolve():
    missing = [name for name in fdwiretap.__all__
               if not hasattr(fdwiretap, name)]
    assert missing == []
