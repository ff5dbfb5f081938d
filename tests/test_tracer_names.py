"""The benchmark tracer (``bench/tracer.py``) wraps tricho functions by name;
every name it lists must still exist, or traced benchmark runs break."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves_on_tricho():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # install() is not called
    targets = [target for table in (tracer.SPANS, tracer.LEAVES)
               for group in table.values() for target in group]
    assert targets
    for module, attr in targets:
        obj = importlib.import_module(f"tricho.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"tricho.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"tricho.{module}.{attr}"
