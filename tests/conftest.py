import pytest
from hypothesis import settings

from koopcontrol import builtin_system

# Property tests draw the same examples on every run (derandomize also
# turns off the example database), and slow examples never time out.
settings.register_profile("koopcontrol", derandomize=True, deadline=None)
settings.load_profile("koopcontrol")


@pytest.fixture
def f3():
    return builtin_system("finite3")


@pytest.fixture
def c2():
    return builtin_system("collapse2")


@pytest.fixture
def sl():
    return builtin_system("scalarlinear")


@pytest.fixture
def lg():
    return builtin_system("logistic-with-offset")
