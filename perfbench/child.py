"""One fresh process of the g2flow benchmark; started by run.py.

    python3 perfbench/child.py setup '<json spec>'
    python3 perfbench/child.py run '<json spec>'

``setup`` times importing g2flow, parsing the generated config and
building the initial FlowState (no geometry), and prints that time.
``run`` does the same set-up, checks that the initial 3-form is positive,
then runs one unit of the workload and prints its timings, operation
counts, its own peak RSS and, with tracing, the per-layer metrics.  The result is
the last line of standard output, as JSON.
"""

import json
import os
import resource
import shutil
import sys
import time

from workloads import UNITS, WORKLOADS, Context


def set_up(spec):
    """Import, parse and build; returns (seconds, cli, cfg, phi0)."""
    wl = WORKLOADS[spec['workload']]
    text = wl.config_text(spec['seed'], spec['seconds'], spec['smoke'])
    t0 = time.perf_counter()
    from g2flow import cli
    cfg = cli.parse_config(text)
    state, _ = cli.build_initial_state(cfg)
    return time.perf_counter() - t0, cli, cfg, state.phi


def fingerprint(spec):
    import numpy as np
    blas = np.show_config(mode='dicts')['Build Dependencies']['blas']
    return {
        'nproc': os.cpu_count(),
        'affinity': len(os.sched_getaffinity(0)),
        'python': sys.version.split()[0],
        'numpy': np.__version__,
        'blas': f"{blas.get('name')} {blas.get('version')}",
        'pinned_env': {k: os.environ.get(k) for k in spec['pinned_env']},
    }


def run(spec):
    _, cli, cfg, phi0 = set_up(spec)
    from g2flow.geometry import MetricField
    MetricField.from_phi(phi0)      # raises NotPositive if not positive
    unit = UNITS[spec['workload']]
    os.makedirs(spec['out_dir'], exist_ok=True)
    tracer = None
    if spec['trace']:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        res = unit(Context(spec['out_dir'], tracer, spec['smoke']),
                   cli, cfg, phi0)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(spec['out_dir'], ignore_errors=True)
    res['fingerprint'] = fingerprint(spec)
    res['peak_rss_mb'] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        res.update(trace_summary(spec, tracer, res['run_s']))
    return res


def trace_summary(spec, tracer, run_s):
    from spans import BASELINE_NOTES
    layers, top_level = tracer.layer_metrics()
    out = {'layers': layers, 'missing': tracer.missing,
           'call_medians': tracer.call_medians(BASELINE_NOTES),
           'span_count': len(tracer.spans),
           'uncovered_s': None if run_s is None else run_s - top_level}
    write_trace(spec, tracer, out)
    return out


def write_trace(spec, tracer, out):
    """Spans as [name, start, end, parent, ok] with times relative to the
    first span, plus the per-layer metrics."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        'workload': spec['workload'], 'seed': spec['seed'],
        'layers': out['layers'], 'missing': out['missing'],
        'call_medians': out['call_medians'],
        'spans': [[n, round(s - t0, 7), round(e - t0, 7), p, ok]
                  for n, s, e, p, ok in tracer.spans],
    }
    tmp = spec['trace_file'] + '.tmp'
    with open(tmp, 'w') as f:
        json.dump(doc, f, separators=(',', ':'))
    os.replace(tmp, spec['trace_file'])


def main(argv):
    mode, spec = argv[1], json.loads(argv[2])
    if mode == 'setup':
        out = {'setup_s': set_up(spec)[0]}
    else:
        out = run(spec)
    print(json.dumps(out))
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
