import json

import numpy as np
import pytest

from metadapt.cli import _coerce_config, main
from metadapt.corpus import load_embeddings, load_jsonl_dataset, split_classes


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

    @pytest.mark.parametrize("args, shown", [
        (["--n-way", "99"], "need 99 classes with >= 6 examples, have 8"),
        (["--k-shot", "0"], "k_shot must be >= 1"),
        (["--n", "-1"], "--n must be >= 1, got -1"),
        (["--n", "0"], "--n must be >= 1, got 0"),
    ], ids=["n_way", "k_shot", "n_negative", "n_zero"])
    def test_data_error_exit(self, args, shown, synth_dir, capsys):
        rc = main(["sample-episodes", "--data", str(synth_dir / "corpus.jsonl")] + args)
        captured = capsys.readouterr()
        assert rc == 2
        assert f"data error: sample-episodes: {shown}" in captured.err
        assert captured.out == ""


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

    @pytest.mark.parametrize("line,shown", [
        ("lam=nan", "lam must be finite and > 0, got nan"),
        ("lam=inf", "lam must be finite and > 0, got inf"),
        ("hidden=0", "dim, hidden, and max_len must be >= 1"),
        ("epochs=0", "epochs, episodes_per_epoch, and val_episodes must be >= 1"),
        ("n_way=0", "n_way must be >= 2"),
        ("disc_hidden1=0", "disc_hidden must be two widths >= 1, got (0, 128)"),
        ("lr=nan", "lr must be finite and > 0, got nan"),
        ("lr=inf", "lr must be finite and > 0, got inf"),
        ("lr=0", "lr must be finite and > 0, got 0.0"),
        ("lr=-1", "lr must be finite and > 0, got -1.0"),
        ("max_len=0", "max_len must be >= 1, got 0"),
        ("n_train_classes=20\nn_val_classes=1\nn_test_classes=2",
         "split counts (20, 1, 2) exceed 8 available classes"),
        ("n_train_classes=-1\nn_val_classes=1\nn_test_classes=2",
         "split counts must be non-negative"),
        ("n_train_classes=2", "give all or none of n_train_classes, n_val_classes, "
                              "n_test_classes; missing n_val_classes, n_test_classes"),
    ], ids=["nan_lam", "inf_lam", "hidden", "epochs", "n_way", "disc_hidden1",
            "nan_lr", "inf_lr", "zero_lr", "negative_lr", "max_len", "excess_split",
            "negative_split", "partial_split"])
    def test_data_error_out_of_range_config(self, line, shown, synth_dir, tmp_path,
                                            capsys):
        config = tmp_path / "c.txt"
        config.write_text(line + "\n")
        out = tmp_path / "o"
        rc = main(["train", "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"data error: config: {shown}" in capsys.readouterr().err
        assert not out.exists()   # refused before any output is written

    @pytest.mark.parametrize("counts, n_way, shown", [
        ((2, 3, 3), 3, "train split: need 3 classes with >= 3 examples, have 2"),
        ((6, 1, 1), 2, "validation split: need 2 classes with >= 3 examples, have 1"),
        ((4, 2, 2), 4, "train split: source pool can have as few as 0 examples, need 8"),
    ], ids=["train", "validation", "source_pool"])
    def test_data_error_n_way_split_cannot_serve(self, counts, n_way, shown, synth_dir,
                                                 tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text(f"n_way={n_way}\nk_shot=1\nl_query=2\nn_train_classes={counts[0]}\n"
                          f"n_val_classes={counts[1]}\nn_test_classes={counts[2]}\n")
        out = tmp_path / "o"
        rc = main(["train", "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert f"data error: {shown}" in capsys.readouterr().err
        assert not (out / "split.json").exists()   # refused before any output

    @pytest.mark.parametrize("seed", range(6))
    def test_data_error_uneven_source_pool(self, seed, tmp_path, capsys):
        # train classes of 3, 3 and 10 examples with n_way=2, l_query=2: a
        # draw of the 10-example class leaves a source pool of 3 for the 4
        # examples it needs, whichever train classes the seed's split holds
        split = split_classes(range(6), (3, 2, 1), np.random.default_rng(seed))
        sizes = dict.fromkeys(range(6), 10)
        sizes.update(zip(sorted(split.train_classes), np.roll([3, 3, 10], seed)))
        rng = np.random.default_rng(seed)
        words = ["a", "b", "c", "d"]
        with open(tmp_path / "corpus.jsonl", "w") as fh:
            for c in range(6):
                for _ in range(sizes[c]):
                    text = " ".join(rng.choice(words, size=4))
                    fh.write(json.dumps({"text": text, "label": f"c{c}"}) + "\n")
        (tmp_path / "vec.txt").write_text(
            "4 3\n" + "".join(f"{w} {i} 1 0\n" for i, w in enumerate(words)))
        config = tmp_path / "c.txt"
        config.write_text(f"seed={seed}\nn_way=2\nk_shot=1\nl_query=2\nepochs=2\n"
                          "episodes_per_epoch=5\nval_episodes=1\nhidden=3\nmax_len=4\n"
                          "n_train_classes=3\nn_val_classes=2\nn_test_classes=1\n")
        out = tmp_path / "o"
        rc = main(["train", "--data", str(tmp_path / "corpus.jsonl"),
                   "--embeddings", str(tmp_path / "vec.txt"),
                   "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert "data error: train split: source pool" in capsys.readouterr().err
        assert not (out / "split.json").exists()

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


class TestEvalShape:
    """``eval`` refuses an episode request the corpus cannot serve with a
    data error, as ``train`` does, and prints no report."""

    @pytest.mark.parametrize("args, shown", [
        (["--n-episodes", "0"], "n_episodes must be >= 1, got 0"),
        (["--n-way", "99"], "need 99 classes with >= 3 examples, have 2"),
        (["--k-shot", "50"], "need 2 classes with >= 52 examples, have 0"),
        (["--seeds", ""], "at least one seed is required"),
        (["--l-query", "0"], "l_query must be >= 1"),
    ], ids=["n_episodes", "n_way", "k_shot", "seeds", "l_query"])
    def test_data_error_exit(self, args, shown, synth_dir, trained_dir, capsys):
        argv = {"--n-episodes": "2", "--n-way": "2", "--k-shot": "1", "--l-query": "2",
                "--seeds": "1"}
        argv.update(zip(args[::2], args[1::2]))
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.json"),
                   "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--split", str(trained_dir / "split.json")]
                  + [a for kv in argv.items() for a in kv])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"data error: eval: {shown}" in captured.err
        assert captured.out == ""


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


class TestSplitClassIds:
    def test_unknown_ids_data_error(self, synth_dir, trained_dir, tmp_path, capsys):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"test_classes": [98, 99], "train_classes": [0]}))
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.json"),
                   "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--split", str(path), "--n-episodes", "2", "--n-way", "2",
                   "--k-shot", "1", "--l-query", "2"])
        assert rc == 2
        assert "class ids [98, 99] are not in the corpus" in capsys.readouterr().err


def _drop_attn_w(payload):
    del payload["arrays"]["gen.attn_w"]


def _short_data(payload):
    payload["arrays"]["gen.fwd.b"]["data"].pop()


def _drop_lam(payload):
    del payload["config"]["lam"]


def _hidden_99(payload):
    payload["config"]["hidden"] = 99


def _zero_disc_hidden(payload):
    payload["config"]["disc_hidden"] = [0, 8]


def _widen_disc_input(payload):
    spec = payload["arrays"]["disc.layer1.w"]
    rows, cols = spec["shape"]
    spec["shape"] = [rows, cols + 1]
    spec["data"] = [v for r in range(rows)
                    for v in spec["data"][r * cols:(r + 1) * cols] + [0.0]]


def _nan_attn_w(payload):
    payload["arrays"]["gen.attn_w"]["data"][0] = float("nan")


def _inf_disc_b(payload):
    payload["arrays"]["disc.layer3.b"]["data"][1] = float("-inf")


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("corrupt", [_drop_attn_w, _short_data, _drop_lam, _hidden_99,
                                         _zero_disc_hidden, _widen_disc_input, _nan_attn_w,
                                         _inf_disc_b])
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_weight_refused_by_dump_attention(self, bad, synth_dir, trained_dir,
                                                         tmp_path, capsys):
        # json reads NaN and Infinity; such a weight used to print nan weights
        payload = json.loads((trained_dir / "checkpoint.json").read_text())
        payload["arrays"]["gen.attn_w"]["data"][0] = bad
        bad_path = tmp_path / "checkpoint.json"
        bad_path.write_text(json.dumps(payload))
        rc = main(["dump-attention", "--checkpoint", str(bad_path),
                   "--embeddings", str(synth_dir / "embeddings.vec"), "--text", "w0 w1 kw0_0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "array gen.attn_w holds a non-finite weight" in captured.err
        assert captured.out == ""
