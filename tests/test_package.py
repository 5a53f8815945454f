import sonolens


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from sonolens import *", namespace)
    assert len(set(sonolens.__all__)) == len(sonolens.__all__)
    for name in sonolens.__all__:
        assert namespace[name] is getattr(sonolens, name)
