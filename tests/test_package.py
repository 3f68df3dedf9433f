"""Public surface of the package."""

import importlib.util
import inspect
import pathlib
import re

import homapprox
from homapprox import errors


def test_every_exported_name_resolves():
    missing = [n for n in homapprox.__all__ if not hasattr(homapprox, n)]
    assert not missing
    assert len(set(homapprox.__all__)) == len(homapprox.__all__)
    namespace = {}
    exec("from homapprox import *", namespace)
    assert set(homapprox.__all__) <= set(namespace)


def test_every_error_class_is_raised():
    """Each exception class of errors, other than the bases that others
    derive from, is raised somewhere in the package: an error nothing raises
    is a dead export."""
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, Exception) and c.__module__ == errors.__name__]
    bases = {b for c in classes for b in c.__bases__}
    source = "\n".join(p.read_text() for p in
                       pathlib.Path(homapprox.__file__).parent.glob("*.py"))
    unraised = [c.__name__ for c in classes if c not in bases
                and not re.search(rf"\braise {c.__name__}\b", source)]
    assert not unraised


def test_only_the_cli_raises_config_error():
    """The config schema is the CLI's: no other module of the package
    raises ConfigError."""
    raisers = [p.name for p in
               pathlib.Path(homapprox.__file__).parent.glob("*.py")
               if re.search(r"\braise ConfigError\b", p.read_text())]
    assert raisers == ["cli.py"]


def test_traced_benchmark_finds_every_layer():
    """The benchmark's tracer wraps package functions by name
    (perfbench/spans.py): every per-layer metric must find one of its
    targets, or a traced run reports that metric as null."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing_metrics() == set()
    finally:
        tracer.uninstall()
