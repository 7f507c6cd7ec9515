"""The span tracer of the benchmark (``perfbench/tracer.py``) wraps volrisk's
public functions by name from outside the package.  A traced ``report``
must still run and yield its per-layer counts."""
import tracer
from volrisk.cli import main


def test_traced_report_counts_its_layers(tmp_path):
    assert main(["simulate", "--out", str(tmp_path), "--assets", "2",
                 "--length", "300", "--seed", "7"]) == 0
    tr = tracer.Tracer().install()
    try:
        tr.enabled = True
        code = main(["report", "--config", str(tmp_path / "sim_config.yaml")])
        tr.enabled = False
    finally:
        tr.uninstall()
    assert code in (0, 1)
    layers = tracer.layer_metrics(*tr.take())
    # two stage-1 fits and the DCC fit, each one minimization
    assert layers["optimize.simplex.calls"] == 3
    assert layers["optimize.simplex.evals"] > 0
    assert layers["cli.output_bytes"] > 0
