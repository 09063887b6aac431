"""Run the public API's docstring examples as doctests.

The docstring pass over :mod:`repro.api`, :mod:`repro.service`,
:mod:`repro.plan` and :mod:`repro.gateway` gives every ``__all__`` symbol
a runnable example; this test keeps those examples true, together with
the package quickstart in :mod:`repro` and the examples of the internal
modules that carry some (Fourier–Motzkin bounds, the disk cache, the nest
builder and parser, telemetry).  It is the "doctests green" leg of the CI
docs job — a doc example that drifts from the code fails here, not in a
reader's terminal.
"""

import doctest
import importlib

import pytest

# Every module whose docstrings carry the public API's examples.  Package
# __init__ modules are listed separately from the defining modules because
# doctest only collects examples from the module the docstring lives in.
DOCTEST_MODULES = [
    "repro",
    "repro.api",
    "repro.api.inputs",
    "repro.api.results",
    "repro.api.session",
    "repro.service",
    "repro.plan",
    "repro.plan.ir",
    "repro.plan.passes",
    "repro.gateway",
    "repro.gateway.gateway",
    "repro.exceptions",
    "repro.intlin.fourier_motzkin",
    "repro.core.diskcache",
    "repro.loopnest.builder",
    "repro.loopnest.parser",
    "repro.runtime.telemetry",
]

# Modules that must actually contain examples — an import shuffle that
# silently moved the docstrings elsewhere should fail, not skip.
MUST_HAVE_EXAMPLES = {
    "repro",
    "repro.api.inputs",
    "repro.api.results",
    "repro.api.session",
    "repro.service",
    "repro.plan.ir",
    "repro.plan.passes",
    "repro.gateway.gateway",
    "repro.intlin.fourier_motzkin",
    "repro.core.diskcache",
    "repro.loopnest.builder",
    "repro.loopnest.parser",
    "repro.runtime.telemetry",
}


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module,
        verbose=False,
        optionflags=doctest.ELLIPSIS,
        report=True,
    )
    assert results.failed == 0, (
        f"{results.failed} doctest example(s) failed in {module_name}"
    )
    if module_name in MUST_HAVE_EXAMPLES:
        assert results.attempted > 0, (
            f"{module_name} is expected to carry runnable docstring examples"
        )


def test_public_symbols_documented_with_examples():
    """Every ``__all__`` symbol of the public packages has a docstring.

    Symbols that are classes or functions must carry their own example
    (``>>>``); constants and aliases are documented (with examples) in
    their defining module's docstring instead, which the doctest runs
    above cover.
    """
    import inspect

    for package_name in ("repro.api", "repro.service", "repro.plan", "repro.gateway"):
        package = importlib.import_module(package_name)
        for symbol in package.__all__:
            obj = getattr(package, symbol)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue  # constants/aliases: documented in module docstrings
            docstring = inspect.getdoc(obj) or ""
            assert docstring, f"{package_name}.{symbol} has no docstring"
            assert ">>>" in docstring, (
                f"{package_name}.{symbol} has no runnable docstring example"
            )
