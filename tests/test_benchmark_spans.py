"""The benchmark's span tracer (perfbench/spans.py) still finds every
g2flow function it times; a renamed or deleted target would silently drop
its per-layer metrics."""

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / 'perfbench' / 'spans.py'


def test_every_span_target_exists():
    spec = importlib.util.spec_from_file_location('perfbench_spans', SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
