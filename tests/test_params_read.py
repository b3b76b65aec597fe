"""Guard against parameters no op reads: between them, one default training
step and one with the fine path live in every layer must put every model
parameter on the gradient tape as an op input. Parameters read only off
the tape are allowlisted, each with its reason.

The guard checks reads, not nonzero gradients: a parameter can be read
and still get an exactly zero gradient on a given batch (an all-zero mask
row), which says nothing about whether the model can ever train it. An
attention whose whole mask is all zero is a constant and goes on no tape,
so a parameter read only by such attentions is not on the tape."""

from fnmatch import fnmatch

from dape import tensor as T
from dape.config import DapeConfig
from dape.model import init_model, train_step
from dape.synth import gen_corpus, load_corpus

# name pattern -> why no op on the tape reads it
ALLOWED = {
    "cwa.gate.*": "ranks channels for the top-k only, off the tape",
    "nfa.conv0": "level-1 mask features, built off the tape (also read by `dape bench`)",
    "nfa.conv1": "level-2 mask features, built off the tape (also read by `dape bench`)",
    "nfa.proj0": "level-1 mask features, built off the tape (also read by `dape bench`)",
    "nfa.proj1": "level-2 mask features, built off the tape (also read by `dape bench`)",
}

CONFIGS = ({}, {"nfa_merge": "pool_add", "k_thr": 0.1})


def read_on_tape(overrides, batch, monkeypatch) -> set[str]:
    """Names of the parameters that one training step's tape reads."""
    cfg = DapeConfig(**overrides)
    model = init_model(cfg)
    inputs: set[int] = set()
    gradients = T.GradTape.gradients

    def recorded(tape, target, sources):
        inputs.update(i for _, _, ids in tape.entries for i in ids)
        return gradients(tape, target, sources)

    monkeypatch.setattr(T.GradTape, "gradients", recorded)
    train_step(model, batch, cfg)
    monkeypatch.undo()
    return {name for name, t in model.params() if id(t) in inputs}


def test_every_parameter_is_read_on_the_tape(tmp_path, monkeypatch):
    path = tmp_path / "c.dape"
    gen_corpus(8, 7, (1, 1, 1), str(path), DapeConfig())
    batch = load_corpus(str(path)).batch(range(8))
    read = set().union(*(read_on_tape(o, batch, monkeypatch) for o in CONFIGS))

    names = [name for name, _ in init_model(DapeConfig()).params()]
    allowed = {n for n in names if any(fnmatch(n, p) for p in ALLOWED)}
    unread = [n for n in names if n not in read and n not in allowed]
    assert not unread, f"parameters no op on the tape reads: {unread}"
    stale = [
        p for p in ALLOWED
        if not any(fnmatch(n, p) and n not in read for n in names)
    ]
    assert not stale, f"stale allowlist entries (no such parameter, or read): {stale}"
