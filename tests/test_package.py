import ragsel


def test_every_exported_name_resolves_and_star_import_works():
    missing = [name for name in ragsel.__all__ if not hasattr(ragsel, name)]
    assert missing == []
    namespace: dict = {}
    exec("from ragsel import *", namespace)  # a name in __all__ that is gone raises here
    assert set(ragsel.__all__) <= namespace.keys()
    assert len(set(ragsel.__all__)) == len(ragsel.__all__)
