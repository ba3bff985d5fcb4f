"""The benchmark tracer wraps attributes by name; each one must exist."""
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrapped_attribute_exists(monkeypatch):
    # `Tracer.installed` reads owner.__dict__[attr], so a name removed from the
    # package would break `bench/run.py --trace 1` with a KeyError
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    missing = [(owner.__name__, attr) for owner, attr, _, _ in spans.WRAPPED
               if attr not in owner.__dict__]
    assert spans.WRAPPED and not missing
