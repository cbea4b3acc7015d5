"""Golden bundle bytes: `xdvae prepare` on two small seeded logs must write
exactly the files recorded below, so a change of the in-memory row layout
cannot move a single byte of the XDB1 output."""

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


@pytest.mark.parametrize("fmt, inputs", [("movielens-dat", _dat_inputs), ("csv", _csv_inputs)])
def test_prepare_writes_golden_bundle(tmp_path, fmt, inputs):
    flags = inputs(tmp_path)
    out = tmp_path / "golden.xdb"
    code = main([
        "prepare", "--ratings", str(tmp_path / "ratings.dat"),
        "--items", str(tmp_path / "movies.dat"),
        "--source-labels", "Action", "--target-labels", "Comedy,Drama",
        "--seed", "9", "--out", str(out), *flags,
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[fmt]
