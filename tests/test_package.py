import kernelforge


def test_public_names_resolve_once():
    names = kernelforge.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(kernelforge, name), name
