import volrisk


def test_every_exported_name_resolves():
    missing = [name for name in volrisk.__all__ if not hasattr(volrisk, name)]
    assert not missing
    assert len(set(volrisk.__all__)) == len(volrisk.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from volrisk import *", namespace)
    assert {name: namespace.get(name) for name in volrisk.__all__} == {
        name: getattr(volrisk, name) for name in volrisk.__all__}


def test_all_is_each_public_modules_all():
    from volrisk import dcc, egarch, market_data, optimize, risk
    assert volrisk.__all__ == ["__version__", "InnovationDist", *market_data.__all__,
                               *optimize.__all__, *egarch.__all__, *dcc.__all__, *risk.__all__]
