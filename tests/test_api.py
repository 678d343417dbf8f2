import koopcontrol
from koopcontrol import catalog, checks, edmd, errors, observables, operators, systems

MODULES = (errors, systems, observables, operators, checks, edmd, catalog)


def test_every_public_name_resolves():
    for name in koopcontrol.__all__:
        assert hasattr(koopcontrol, name), name


def test_public_names_are_the_union_of_the_module_lists():
    from_modules = [name for module in MODULES for name in module.__all__]
    assert len(set(from_modules)) == len(from_modules)
    assert set(koopcontrol.__all__) == set(from_modules) | {"__version__"}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(koopcontrol, name) is getattr(module, name)
