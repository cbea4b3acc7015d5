"""Golden artifact bytes: `xdvae prepare` on two small seeded logs, and one
seeded `xdvae train` epoch per checkpoint kind, must write exactly the files
recorded below, so a change of the in-memory row layout or of the container
code cannot move a single byte of the XDB1 or XDV1 output."""

import hashlib

import pytest

from xdvae.cli import main

from conftest import make_synthetic_interactions

# sha256 of the bundles these inputs produce; the XDB1 bytes must not depend
# on how rows are held in memory
GOLDEN = {
    "movielens-dat": "1581c4d935fa377a94764846c12d23d214878e17f2ce884bb35772ae49b5f0df",
    "csv": "1f543e4dab91deeababc6d3ea0253d7d920f32f5b668b52857ebfb6dfbc7dd89",
}

# sha256 of the checkpoints one seeded epoch writes on the movielens-dat golden
# bundle; the XDV1 bytes must not depend on how the container is written
GOLDEN_CHECKPOINT = {
    "generic": "8aff7d2557aa108929309b5513aafe109a2d3bebd2a2f67950015722f79247bc",
    "cold-start": "d683840dd5d3755d11e3c77c7d8a734af09f72c6a3bf707172a0b7b91a9da765",
}


def _dat_inputs(root):
    ratings, movies = make_synthetic_interactions(m=40, n_source=20, n_target=150, seed=3)
    (root / "ratings.dat").write_text("\n".join(ratings) + "\n")
    (root / "movies.dat").write_text("\n".join(movies) + "\n")
    return ["--format", "movielens-dat", "--policy", "latest"]


def _csv_inputs(root):
    ratings, movies = make_synthetic_interactions(m=40, n_source=20, n_target=150, seed=4)
    lines = ["user,item,rating,timestamp"]
    for n, line in enumerate(ratings):
        user, item, rating, ts = line.split("::")
        lines.append(f"{user},{item},{rating},{'' if n % 3 == 0 else ts}")
    (root / "ratings.dat").write_text("\n".join(lines) + "\n")
    labels = ["item,labels"] + [f"{m.split('::')[0]},{m.split('::')[2]}" for m in movies]
    (root / "movies.dat").write_text("\n".join(labels) + "\n")
    # users 1..30 carry a 3-wide auxiliary vector, the rest get zeros
    aux = [f"{u},{u / 7:.3f},{-u / 3:.3f},{u % 5}" for u in range(1, 31)]
    (root / "aux.csv").write_text("\n".join(aux) + "\n")
    return ["--format", "csv", "--policy", "random",
            "--aux", str(root / "aux.csv"), "--aux-dim", "3"]


def _prepare(root, inputs):
    """Path of the bundle `xdvae prepare` writes from inputs(root)."""
    flags = inputs(root)
    out = root / "golden.xdb"
    code = main([
        "prepare", "--ratings", str(root / "ratings.dat"),
        "--items", str(root / "movies.dat"),
        "--source-labels", "Action", "--target-labels", "Comedy,Drama",
        "--seed", "9", "--out", str(out), *flags,
    ])
    assert code == 0
    return out


@pytest.mark.parametrize("fmt, inputs", [("movielens-dat", _dat_inputs), ("csv", _csv_inputs)])
def test_prepare_writes_golden_bundle(tmp_path, fmt, inputs):
    out = _prepare(tmp_path, inputs)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[fmt]


@pytest.mark.parametrize("variant", ["generic", "cold-start"])
def test_train_writes_golden_checkpoint(tmp_path, variant):
    bundle = _prepare(tmp_path, _dat_inputs)
    out = tmp_path / "golden.xdv"
    assert main([
        "train", "--bundle", str(bundle), "--variant", variant, "--epochs", "1",
        "--dims", "16", "--latent-dim", "8", "--batch-size", "8", "--seed", "5",
        "--cold-fraction", "0.25", "--out", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CHECKPOINT[variant]


# sha256 of the JSON and CSV reports `xdvae eval` writes from the golden
# checkpoints on the movielens-dat golden bundle; a faster scoring path must
# not move a metric byte
GOLDEN_REPORT = {
    "standard": ("405e969882d0469bcef27b14d147078631a3cb3492d03e283dbcfc6dd1fbf9e0",
                 "44cd46da8f0f5c114fd08bb4934f1c8406a5f46f4ef4e2c98f3351098123edc7"),
    "degrade": ("27b1bb58fc43056f09dad540dd470ee1dec95b83ade27eca50521202c3b14747",
                "76987552af3f27cd0af209b72b92c23bc868a68b7df6c42a418fc70b6a144096"),
    "coldstart": ("24341dba6d4b41d6e92d0bcad0b4006390a4113e3ef3522516d59bbae9ce3a3a",
                  "1118c4e3edcff761ffd958e9d249e101812b0a53dd6177a9273ae82c77b21ac3"),
}


@pytest.mark.parametrize("protocol", ["standard", "degrade", "coldstart"])
def test_eval_writes_golden_reports(tmp_path, monkeypatch, protocol):
    bundle = _prepare(tmp_path, _dat_inputs)
    variant = "cold-start" if protocol == "coldstart" else "generic"
    # relative paths: the reports name their manifest, whose path is in the bytes
    monkeypatch.chdir(tmp_path)
    assert main([
        "train", "--bundle", str(bundle), "--variant", variant, "--epochs", "1",
        "--dims", "16", "--latent-dim", "8", "--batch-size", "8", "--seed", "5",
        "--cold-fraction", "0.25", "--out", "golden.xdv",
    ]) == 0
    assert main(["eval", "--model", "golden.xdv", "--bundle", str(bundle),
                 "--protocol", protocol, "--out", "report"]) == 0
    digests = tuple(hashlib.sha256((tmp_path / f"report.{ext}").read_bytes()).hexdigest()
                    for ext in ("json", "csv"))
    assert digests == GOLDEN_REPORT[protocol]
