import json
from pathlib import Path

import numpy as np
import pytest

from metadapt.cli import _CONFIG_DEFAULTS, _coerce_config, main
from metadapt.corpus import load_embeddings, load_jsonl_dataset, split_classes
from metadapt.harness import save_checkpoint
from metadapt.model import DiscriminatorParams, GeneratorParams, ModelConfig


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(out), "--n-classes", "8",
               "--examples-per-class", "8", "--sentence-len", "8",
               "--keywords-per-class", "2", "--noise-vocab", "6",
               "--dim", "8", "--seed", "0"])
    assert rc == 0
    return out


def untrained_checkpoint(path, **flags):
    """A checkpoint of initial weights for ``synth_dir``'s 8-dimensional
    vectors, with ``max_len=8``."""
    cfg = ModelConfig(dim=8, hidden=4, max_len=8, disc_hidden=(8, 6), **flags)
    rng = np.random.default_rng(0)
    save_checkpoint(path, GeneratorParams.init(cfg, rng),
                    DiscriminatorParams.init(cfg.encoder_dim, cfg.disc_hidden, rng), cfg)
    return path


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

    @pytest.mark.parametrize("variant", ["default", "concat_fusion"])
    def test_dump_attention_cut_to_max_len(self, variant, synth_dir, trained_dir, tmp_path,
                                           capsys):
        # both checkpoints have max_len=8, so the model never reads a 9th token
        checkpoint = trained_dir / "checkpoint.json"
        if variant == "concat_fusion":
            checkpoint = untrained_checkpoint(tmp_path / "concat.json", concat_fusion=True)

        def dump(words):
            assert main(["dump-attention", "--checkpoint", str(checkpoint),
                         "--embeddings", str(synth_dir / "embeddings.vec"),
                         "--text", " ".join(words)]) == 0
            return capsys.readouterr().out

        words = "kw0_0 w1 w2 w3 w4 w5 w0 kw1_0 w1 w2 w3 kw2_1".split()
        out = dump(words)
        assert [line.split("\t")[0] for line in out.splitlines()] == words[:8]
        assert out == dump(words[:8])

    @pytest.mark.parametrize("embeddings", ["embeddings.vec", "absent.vec"])
    def test_dump_attention_refuses_plain_encoder(self, embeddings, synth_dir, tmp_path,
                                                  capsys):
        # refused once the checkpoint loads, before the embeddings are read
        checkpoint = untrained_checkpoint(tmp_path / "plain.json", no_adversarial=True)
        rc = main(["dump-attention", "--checkpoint", str(checkpoint),
                   "--embeddings", str(synth_dir / embeddings), "--text", "kw0_0 w1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ("data error: the plain-encoder ablation produces "
                                "no attention weights\n")
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [2, 4])
    def test_small_class_warned_once(self, seed, tmp_path, caplog):
        # class_8 cut to one example; seeds 2 and 4 put it in a checked split
        assert main(["synth", "--out", str(tmp_path), "--n-classes", "9",
                     "--examples-per-class", "10", "--sentence-len", "8",
                     "--noise-vocab", "6", "--dim", "8"]) == 0
        lines = (tmp_path / "corpus.jsonl").read_text().splitlines(keepends=True)
        small = [l for l in lines if json.loads(l)["label"] == "class_8"]
        (tmp_path / "corpus.jsonl").write_text(
            "".join(l for l in lines if l not in small[1:]))
        config = tmp_path / "c.txt"
        config.write_text(f"seed={seed}\nn_way=2\nk_shot=1\nl_query=2\nepochs=1\n"
                          "episodes_per_epoch=1\nval_episodes=1\nhidden=3\nmax_len=8\n"
                          "n_train_classes=5\nn_val_classes=2\nn_test_classes=2\n")
        with caplog.at_level("WARNING"):
            rc = main(["train", "--data", str(tmp_path / "corpus.jsonl"),
                       "--embeddings", str(tmp_path / "embeddings.vec"),
                       "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert [r.getMessage() for r in caplog.records if "excluding" in r.getMessage()] == [
            "excluding 1 class(es) with fewer than 3 examples"]


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

    @pytest.mark.parametrize("command", ["train", "synth", "dump-attention"])
    def test_unwritable_output_usage_error(self, command, synth_dir, trained_dir, tmp_path,
                                           capsys):
        # an output below a regular file, whose directory cannot be made
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / ("x.tsv" if command == "dump-attention" else "run")
        args = {"train": ["--data", str(synth_dir / "corpus.jsonl"),
                          "--embeddings", str(synth_dir / "embeddings.vec"),
                          "--config", str(trained_dir / "config.txt")],
                "synth": [],
                "dump-attention": ["--checkpoint", str(trained_dir / "checkpoint.json"),
                                   "--embeddings", str(synth_dir / "embeddings.vec"),
                                   "--text", "w0 w1"]}[command]
        rc = main([command, *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and str(out) in err

    def test_model_too_large_usage_error(self, synth_dir, tmp_path, capsys):
        # weights beyond any 64-bit address space, so no allocation succeeds
        config = tmp_path / "c.txt"
        config.write_text("hidden=100000000000000\nn_way=2\nl_query=2\nn_train_classes=4\n"
                          "n_val_classes=2\nn_test_classes=2\n")
        rc = main(["train", "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: Unable to allocate")

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
        # float() of this integer overflows
        ("c.json", '{"lam": 1%s}' % ("0" * 400), "'lam' has a value of the wrong type: 1000"),
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
        ("source_excludes=bogus", "source_excludes must be 'all' or 'current', got 'bogus'"),
        ("n_train_classes=20\nn_val_classes=1\nn_test_classes=2",
         "split counts (20, 1, 2) exceed 8 available classes"),
        ("n_train_classes=-1\nn_val_classes=1\nn_test_classes=2",
         "split counts must be non-negative"),
        ("n_train_classes=2", "give all or none of n_train_classes, n_val_classes, "
                              "n_test_classes; missing n_val_classes, n_test_classes"),
    ], ids=["nan_lam", "inf_lam", "hidden", "epochs", "n_way", "disc_hidden1",
            "nan_lr", "inf_lr", "zero_lr", "negative_lr", "max_len", "source_excludes",
            "excess_split", "negative_split", "partial_split"])
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

    def test_readme_lists_config_defaults(self):
        # README's "Keys and defaults" list states each default as the config
        # table does, in value and type; a key without a value defaults to None
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        listed = {}
        for item in readme.split("Keys and defaults:", 1)[1].split("`")[1].split():
            keys, _, text = item.partition("=")
            try:
                value = json.loads(text) if text else None
            except json.JSONDecodeError:
                value = text
            listed.update(dict.fromkeys(keys.split("/"), value))
        assert ({k: (v, type(v)) for k, v in listed.items()}
                == {k: (v, type(v)) for k, v in _CONFIG_DEFAULTS.items()})

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


def _version_true(payload):
    payload["format_version"] = True   # equal to 1, but no version number


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("corrupt", [_drop_attn_w, _short_data, _drop_lam, _hidden_99,
                                         _zero_disc_hidden, _widen_disc_input, _nan_attn_w,
                                         _inf_disc_b, _version_true])
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

    @pytest.mark.parametrize("key, value", [
        ("dim", "8"), ("hidden", 4.9), ("hidden", True), ("max_len", 8.5), ("lam", True),
        ("lam", "0.5"), ("no_adversarial", "false"), ("concat_fusion", 0),
        ("disc_hidden", "86"), ("disc_hidden", [8.0, 6]), ("disc_hidden", [8, 6, 1]),
        ("hiden", 64)])
    def test_bad_config_value_names_key(self, key, value, synth_dir, trained_dir, tmp_path,
                                        capsys):
        payload = json.loads((trained_dir / "checkpoint.json").read_text())
        payload["config"][key] = value
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(payload))
        rc = main(["eval", "--checkpoint", str(bad),
                   "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--n-episodes", "2", "--n-way", "2", "--k-shot", "1", "--l-query", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert key in err.partition("bad model config")[2]

    @pytest.mark.parametrize("key, value, shown", [
        ("lam", 10 ** 400, "OverflowError"),
        # weights beyond any 64-bit address space, so no allocation succeeds
        ("hidden", 10 ** 14, "MemoryError"),
        ("hidden", 2 ** 70, "ValueError"),
    ], ids=["lam_overflows_float", "hidden_too_large", "hidden_beyond_numpy"])
    def test_unbuildable_config_data_error(self, key, value, shown, synth_dir, trained_dir,
                                           tmp_path, capsys):
        payload = json.loads((trained_dir / "checkpoint.json").read_text())
        payload["config"][key] = value
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(payload))
        rc = main(["eval", "--checkpoint", str(bad),
                   "--data", str(synth_dir / "corpus.jsonl"),
                   "--embeddings", str(synth_dir / "embeddings.vec"),
                   "--n-episodes", "2", "--n-way", "2", "--k-shot", "1", "--l-query", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"data error: {bad}: bad model config: {shown}")

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



_READERS = {   # the command that reads each input first, as argv
    "corpus": lambda f: ["sample-episodes", "--data", f["corpus"]],
    "embeddings": lambda f: ["dump-attention", "--checkpoint", f["checkpoint"],
                             "--embeddings", f["embeddings"], "--text", "w0 w1"],
    "checkpoint": lambda f: ["eval", "--checkpoint", f["checkpoint"], "--data", f["corpus"],
                             "--embeddings", f["embeddings"], "--n-episodes", "2",
                             "--n-way", "2", "--k-shot", "1", "--l-query", "2"],
    "config": lambda f: ["train", "--data", f["corpus"], "--embeddings", f["embeddings"],
                         "--config", f["config"], "--out", f["out"]],
    "split": lambda f: ["eval", "--checkpoint", f["checkpoint"], "--data", f["corpus"],
                        "--embeddings", f["embeddings"], "--split", f["split"],
                        "--n-episodes", "2", "--n-way", "2", "--k-shot", "1", "--l-query", "2"],
}


def _input_files(synth_dir, trained_dir, tmp_path):
    """Each input _READERS reads, as a run wrote it, and an output directory."""
    return {"corpus": synth_dir / "corpus.jsonl", "embeddings": synth_dir / "embeddings.vec",
            "checkpoint": trained_dir / "checkpoint.json", "split": trained_dir / "split.json",
            "config": trained_dir / "config.txt", "out": tmp_path / "run"}


class TestNotUtf8:
    """A file that is not UTF-8 is a data error naming the file and the
    first line that does not decode."""

    @pytest.mark.parametrize("kind", sorted(_READERS))
    def test_data_error_names_file_and_line(self, kind, synth_dir, trained_dir, tmp_path,
                                            capsys):
        files = _input_files(synth_dir, trained_dir, tmp_path)
        raw = files[kind].read_bytes()
        if kind == "checkpoint":   # one line; two bytes in its middle replaced
            middle = len(raw) // 2
            raw, lineno = raw[:middle] + b"\xff\xfe" + raw[middle + 2:], 1
        else:                      # line 3 ends in a Latin-1 "\u00e9"
            lines = raw.split(b"\n")
            lines[2] += b" caf\xe9"
            raw, lineno = b"\n".join(lines), 3
        files[kind] = tmp_path / files[kind].name
        files[kind].write_bytes(raw)
        rc = main([str(arg) for arg in _READERS[kind](files)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"data error: {files[kind]}:{lineno}: not UTF-8 text: "
                              "'utf-8' codec can't decode byte 0x")


class TestUnparsableJson:
    """Every JSON input that Python's parser cannot turn into values, whether
    nested deeper than it recurses or holding an integer longer than it
    converts, is a data error naming the file (and the line of a corpus)."""

    @pytest.mark.parametrize("value", ["[" * 200_000 + "]" * 200_000, "1" * 5000],
                             ids=["deep", "long_int"])
    @pytest.mark.parametrize("kind, what", [("corpus", "dataset"), ("config", "config"),
                                            ("split", "split"), ("checkpoint", "checkpoint")])
    def test_data_error_names_file(self, kind, what, value, synth_dir, trained_dir, tmp_path,
                                   capsys):
        files = _input_files(synth_dir, trained_dir, tmp_path)
        bad = '{"text": "w0", "label": %s}' % value
        if kind == "corpus":   # the bad object on line 3
            lines = files[kind].read_text().splitlines()
            bad, where = "\n".join(lines[:2] + [bad] + lines[2:]), ":3"
        else:
            where = ""
        files[kind] = tmp_path / files[kind].name
        files[kind].write_text(bad)
        rc = main([str(arg) for arg in _READERS[kind](files)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"data error: {files[kind]}{where}: invalid {what} JSON: ")
        assert captured.out == ""
