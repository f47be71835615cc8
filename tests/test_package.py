import desirables
from desirables import coherence, discount, errors, gamble, intertemporal, utility

MODULES = (coherence, discount, errors, gamble, intertemporal, utility)


def test_package_exports_are_the_module_lists():
    names = desirables.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(desirables, name) is getattr(module, name)
    assert "EtaSpec" in names
