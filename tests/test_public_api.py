import siteval


def test_star_import_binds_every_public_name():
    # A name in __all__ that the package no longer defines makes this raise.
    namespace: dict = {}
    exec("from siteval import *", namespace)
    assert set(siteval.__all__) <= set(namespace)
