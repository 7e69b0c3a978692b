import json

import pytest

from metadapt.cli import _coerce_config, main
from metadapt.corpus import load_embeddings, load_jsonl_dataset


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(out), "--n-classes", "8",
               "--examples-per-class", "8", "--sentence-len", "8",
               "--keywords-per-class", "2", "--noise-vocab", "6",
               "--dim", "8", "--seed", "0"])
    assert rc == 0
    return out


class TestSynth:
    def test_files_reload(self, synth_dir):
        ds = load_jsonl_dataset(synth_dir / "corpus.jsonl")
        assert len(ds.examples) == 64
        assert len(ds.classes) == 8
        table = load_embeddings(synth_dir / "embeddings.vec", ds.vocab)
        assert table.dim == 8
        assert table.oov_count == 0
        keywords = json.loads((synth_dir / "keywords.json").read_text())
        assert len(keywords) == 8
        assert all(len(v) == 2 for v in keywords.values())


class TestSampleEpisodes:
    def test_prints_episodes(self, synth_dir, capsys):
        rc = main(["sample-episodes", "--data", str(synth_dir / "corpus.jsonl"),
                   "--n", "3", "--n-way", "2", "--k-shot", "1", "--l-query", "2"])
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 3
        assert out[0].startswith("episode 0:")


class TestGradcheck:
    def test_passes(self, capsys):
        rc = main(["gradcheck", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "disc_loss_wrt_mu" in out and "gen_loss_wrt_beta" in out
        assert "FAIL" not in out


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = out / "config.txt"
    config.write_text(
        "epochs=2\nepisodes_per_epoch=3\npatience=5\nseed=1\nval_episodes=2\n"
        "lr=0.01\nn_way=2\nk_shot=1\nl_query=2\nhidden=4\nlam=0.5\nmax_len=8\n"
        "n_train_classes=4\nn_val_classes=2\nn_test_classes=2\n"
        "disc_hidden1=8\ndisc_hidden2=6\n")
    rc = main(["train", "--data", str(synth_dir / "corpus.jsonl"),
               "--embeddings", str(synth_dir / "embeddings.vec"),
               "--config", str(config), "--out", str(out)])
    assert rc == 0
    return out


class TestTrainEval:
    def test_train_outputs(self, trained_dir, capsys):
        assert (trained_dir / "checkpoint.json").exists()
        assert (trained_dir / "split.json").exists()
        assert (trained_dir / "metrics.jsonl").exists()
        assert (trained_dir / "metrics.csv").exists()
        with open(trained_dir / "metrics.jsonl") as fh:
            assert sum(1 for _ in fh) == 6

    def test_eval_reports(self, synth_dir, trained_dir, capsys):
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.json"),
                   "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--split", str(trained_dir / "split.json"),
                   "--n-episodes", "4", "--seeds", "1,2", "--n-way", "2",
                   "--k-shot", "1", "--l-query", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["mean_accuracy"] <= 1.0
        assert report["total_episodes"] == 8
        assert report["seeds"] == [1, 2]

    def test_dump_attention(self, synth_dir, trained_dir, capsys):
        rc = main(["dump-attention",
                   "--checkpoint", str(trained_dir / "checkpoint.json"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--text", "kw0_0 w1 w2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        weights = [float(l.split("\t")[1]) for l in lines]
        assert abs(sum(weights) - 1.0) < 1e-5


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main(["train", "--data", "x"]) == 1  # missing required args

    def test_numerical_failure_exit(self, capsys, monkeypatch):
        import metadapt.cli as cli_mod
        monkeypatch.setattr(cli_mod.harness, "run_gradient_checks",
                            lambda seed=0: {"disc_loss_wrt_mu": 1.0})
        assert main(["gradcheck"]) == 3

    def test_data_error_missing_file(self, capsys, tmp_path):
        rc = main(["sample-episodes", "--data", str(tmp_path / "absent.jsonl")])
        assert rc == 2

    def test_data_error_unknown_config_key(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("bogus_key=1\n")
        rc = main(["train", "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("name, text, shown", [
        ("c.json", '{"epochs": null}', "'epochs' has a value of the wrong type: None"),
        ("c.txt", "epochs=abc\n", "'epochs' has a value of the wrong type: 'abc'"),
        ("c.json", '{"lr": "fast"}', "'lr' has a value of the wrong type: 'fast'"),
        ("c.txt", "concat_fusion=maybe\n",
         "'concat_fusion' has a value of the wrong type: 'maybe'"),
    ])
    def test_data_error_mistyped_config_value(self, name, text, shown, synth_dir,
                                              tmp_path, capsys):
        config = tmp_path / name
        config.write_text(text)
        rc = main(["train", "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"data error: config key {shown}" in capsys.readouterr().err

    def test_config_values_coerced(self):
        cfg = _coerce_config({"concat_fusion": 1, "no_adversarial": "off", "epochs": "3",
                              "lam": 2, "lr": "0.5", "source_excludes": "current"})
        assert cfg["concat_fusion"] is True and cfg["no_adversarial"] is False
        assert (cfg["epochs"], cfg["lam"], cfg["lr"]) == (3, 2.0, 0.5)
        assert isinstance(cfg["lam"], float) and cfg["source_excludes"] == "current"

    def test_json_config_accepted(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "epochs": 1, "episodes_per_epoch": 2, "patience": 0, "seed": 0,
            "val_episodes": 2, "n_way": 2, "k_shot": 1, "l_query": 1,
            "hidden": 4, "lam": 0.5, "max_len": 8,
            "n_train_classes": 4, "n_val_classes": 2, "n_test_classes": 2,
            "disc_hidden1": 8, "disc_hidden2": 6}))
        rc = main(["train", "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 0


class TestMalformedSplit:
    @pytest.mark.parametrize("split", [
        [1, 2],
        {"test_classes": 5, "train_classes": [0, 1]},
        {"test_classes": [6, 7]},
        {"test_classes": ["6", 7], "train_classes": [0, 1]},
    ])
    def test_data_error_exit(self, split, synth_dir, trained_dir, tmp_path, capsys):
        path = tmp_path / "split.json"
        path.write_text(json.dumps(split))
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.json"),
                   "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--split", str(path), "--n-episodes", "2", "--n-way", "2",
                   "--k-shot", "1", "--l-query", "2"])
        assert rc == 2
        assert "data error:" in capsys.readouterr().err


def _drop_attn_w(payload):
    del payload["arrays"]["gen.attn_w"]


def _short_data(payload):
    payload["arrays"]["gen.fwd.b"]["data"].pop()


def _drop_lam(payload):
    del payload["config"]["lam"]


def _hidden_99(payload):
    payload["config"]["hidden"] = 99


def _widen_disc_input(payload):
    spec = payload["arrays"]["disc.layer1.w"]
    rows, cols = spec["shape"]
    spec["shape"] = [rows, cols + 1]
    spec["data"] = [v for r in range(rows)
                    for v in spec["data"][r * cols:(r + 1) * cols] + [0.0]]


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("corrupt", [_drop_attn_w, _short_data, _drop_lam, _hidden_99,
                                         _widen_disc_input])
    def test_data_error_exit(self, corrupt, synth_dir, trained_dir, tmp_path, capsys):
        payload = json.loads((trained_dir / "checkpoint.json").read_text())
        corrupt(payload)
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(payload))
        rc = main(["eval", "--checkpoint", str(bad),
                   "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--n-episodes", "2", "--n-way", "2", "--k-shot", "1", "--l-query", "2"])
        assert rc == 2
        assert "data error:" in capsys.readouterr().err
