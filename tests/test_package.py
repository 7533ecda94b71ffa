import gppi


def test_every_exported_name_resolves():
    missing = [name for name in gppi.__all__ if not hasattr(gppi, name)]
    assert missing == []
    assert len(set(gppi.__all__)) == len(gppi.__all__)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from gppi import *", namespace)
    assert set(gppi.__all__) <= set(namespace)


def test_composition_exports_the_plan():
    assert "composite_plan" in gppi.__all__
    assert not hasattr(gppi, "composite_control")
