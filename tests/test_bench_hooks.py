import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import Tracer  # noqa: E402


def test_tracer_patches_and_restores_every_layer():
    # install() looks up every name the benchmark wraps, so dropping or
    # renaming one of them fails here; uninstall() must put each back
    tracer = Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
