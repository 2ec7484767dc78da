"""Exit codes and end-to-end command pipeline."""
import hashlib
import os
from pathlib import Path

import pytest

from sunet.arch import build_classifier, toy_config
from sunet.cli import main
from sunet.graph import NetworkGraph
from sunet.io import read_pgm


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_no_command_exits_1(capsys):
    rc, _, _ = run(capsys)
    assert rc == 1


def test_unknown_flag_exits_1(capsys):
    rc, _, err = run(capsys, "analyze", "--preset", "sunet64", "--frobnicate")
    assert rc == 1


def test_unknown_preset_exits_1(capsys):
    rc, _, _ = run(capsys, "analyze", "--preset", "sunet999")
    assert rc == 1


def test_missing_graph_file_exits_2(capsys):
    rc, _, err = run(capsys, "analyze", "--graph", "/no/such/file.graph")
    assert rc == 2
    assert "no such graph file" in err


def test_bad_config_exits_1(capsys):
    rc, _, err = run(capsys, "analyze", "--toy", "0", "--input-hw", "64")
    assert rc == 1
    assert "error:" in err


def test_analyze_report(capsys):
    rc, out, _ = run(capsys, "analyze", "--preset", "sunet64",
                     "--input-hw", "224")
    assert rc == 0
    assert "params total: 6894504" in out
    assert "params ≈ 6.9M" in out
    assert "trace: 112 56 56 28 28 14 14 7 7 1" in out
    assert "layers (conv+tconv+fc): 110" in out


def test_analyze_csv(tmp_path, capsys):
    path = str(tmp_path / "report.csv")
    rc, _, _ = run(capsys, "analyze", "--toy", "8", "--input-hw", "64",
                   "--csv", path)
    assert rc == 0
    lines = Path(path).read_text().strip().split("\n")
    assert lines[0] == "node,kind,out_c,out_h,out_w,params,rf_h,rf_w,jump_h,jump_w"
    graph = build_classifier(toy_config(8), input_hw=(64, 64))
    assert [line.split(",")[0] for line in lines[1:]] == [n.name for n in graph.nodes]


def test_analyze_graph_at_another_input_size(tmp_path, capsys):
    path = str(tmp_path / "g.graph")
    run(capsys, "build", "--toy", "8", "--input-hw", "64", "--out", path)
    rc, out, _ = run(capsys, "analyze", "--graph", path, "--input-hw", "96")
    assert rc == 0
    assert "input: 3x96x96" in out
    assert "trace: 48 24 24 12 12 6 6 3 3 1" in out
    rc, out, _ = run(capsys, "analyze", "--graph", path)
    assert "input: 3x64x64" in out


def test_build_round_trip(tmp_path, capsys):
    path = str(tmp_path / "g.graph")
    rc, out, _ = run(capsys, "build", "--toy", "8", "--input-hw", "64",
                     "--out", path)
    assert rc == 0
    text = Path(path).read_text()
    g = NetworkGraph.parse(text)
    assert g.serialize() == text
    assert g.digest[:12] in out


# graph files whose digest is valid but whose content is not
CONV = "node c1 conv in=input cin=3 cout=8 d=1x1 k=3x3 p=1x1 s=1x1\n"


BN = "node b1 bn_relu in=input c=3 decay=0.99 eps=1e-05\n"


@pytest.mark.parametrize("input_line,node_line,message", [
    ("input c=3 h=16 w=16", "node c1\n", "line 3: node line needs a name and a kind"),
    ("input c=3 h=16 w=16", CONV.replace("cin=3 ", ""), "node 'c1': conv needs attribute 'cin'"),
    ("input c=3 h=16", CONV, "line 2: input line needs 'w'"),
    ("input c=3 h=16 w=16", CONV.replace("in=input", "input"),
     "line 3: token 'input' is not key=value"),
    ("input c=3 h=16 w=16", CONV.replace("in=input ", ""),
     "node 'c1': conv takes 1 input(s), got 0"),
    ("input c=3 h=16 w=16", CONV.replace("in=input", "in=input,input"),
     "node 'c1': conv takes 1 input(s), got 2"),
    ("input c=3 h=16 w=16", CONV + "node a1 add in=c1\n",
     "node 'a1': add takes 2 input(s), got 1"),
    ("input c=3 h=16 w=16", CONV.replace("k=3x3", "k=3"),
     "node 'c1': attribute 'k' must be a pair of positive integers, got 3"),
    ("input c=3 h=16 w=16", CONV.replace("s=1x1", "s=0x0"),
     "node 'c1': attribute 's' must be a pair of positive integers, got (0, 0)"),
    ("input c=3 h=16 w=16", CONV.replace("cout=8", "cout=0"),
     "node 'c1': attribute 'cout' must be a positive integer, got 0"),
    ("input c=3 h=16 w=16", BN.replace("decay=0.99", "decay=nan"),
     "node 'b1': attribute 'decay' must be a number in [0, 1], got nan"),
    ("input c=3 h=16 w=16", BN.replace("eps=1e-05", "eps=-1"),
     "node 'b1': attribute 'eps' must be a finite number > 0, got -1"),
    ("input c=3 h=16 w=16", "node g1 grid_mask in=input keep=0 period=2\n",
     "node 'g1': attribute 'keep' must be a positive integer, got 0"),
], ids=["node-name-only", "conv-without-cin", "input-without-w", "bare-token",
        "conv-without-input", "conv-with-two-inputs", "add-with-one-input",
        "int-kernel", "zero-stride", "zero-cout", "nan-decay", "negative-eps",
        "zero-keep"])
def test_malformed_graph_file_exits_1(tmp_path, capsys, input_line, node_line,
                                      message):
    body = f"sunet-graph 1\n{input_line}\n{node_line}"
    path = tmp_path / "bad.graph"
    path.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    rc, _, err = run(capsys, "analyze", "--graph", str(path))
    assert rc == 1
    assert f"error: {message}" in err


def test_convert_degridding_layout(tmp_path, capsys):
    path = str(tmp_path / "seg.graph")
    rc, _, _ = run(capsys, "convert", "--preset", "sunet7_128",
                   "--input-hw", "513", "--output-stride", "8",
                   "--degridding", "--classes", "21", "--out", path)
    assert rc == 0
    g = NetworkGraph.parse(Path(path).read_text())
    d1, d2 = g.by_name["deg1.conv"].attrs, g.by_name["deg2.conv"].attrs
    assert d1["d"] == (2, 2) and d1["cout"] == 512
    assert d2["d"] == (1, 1) and d2["cout"] == 512
    assert g.by_name["cls.conv"].attrs["cout"] == 21
    assert g.meta["output_stride"] == "8"


def test_convert_to_stdout(capsys):
    rc, out, _ = run(capsys, "convert", "--toy", "8", "--input-hw", "64")
    assert rc == 0
    assert NetworkGraph.parse(out).meta["kind"] == "segmentation"


def test_gen_data_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (a, b):
        rc, out, _ = run(capsys, "gen-data", "--out", d, "--count", "5",
                         "--canvas", "32", "--seed", "11")
        assert rc == 0
        assert "wrote 5 pairs" in out
    def snapshot(root):
        out = {}
        for base, _, files in os.walk(root):
            for f in files:
                p = os.path.join(base, f)
                out[os.path.relpath(p, root)] = Path(p).read_bytes()
        return out

    assert snapshot(a) == snapshot(b)
    rc, _, _ = run(capsys, "gen-data", "--out", str(tmp_path / "c"),
                   "--count", "5", "--canvas", "32", "--seed", "12")
    assert rc == 0
    assert snapshot(a) != snapshot(str(tmp_path / "c"))


# bad values are validation errors (exit 1), not I/O errors (exit 2)
@pytest.mark.parametrize("flags,message", [
    (["--classes", "1"], "need at least 2 classes"),
    (["--void-border", "-1"], "negative void border"),
    (["--count", "-1"], "negative count"),
    (["--noise", "nan"], "noise nan outside"),
    (["--noise", "inf"], "noise inf outside"),
    (["--noise", "-1"], "noise -1.0 outside"),
], ids=["classes", "void-border", "count", "noise-nan", "noise-inf", "noise-negative"])
def test_gen_data_bad_value_exits_1(tmp_path, capsys, flags, message):
    rc, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d"),
                     "--count", "2", *flags)
    assert rc == 1
    assert message in err
    assert not (tmp_path / "d").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> build -> convert -> train, shared by the e2e tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = str(root / "data")
    clf = str(root / "clf.graph")
    seg = str(root / "seg.graph")
    out = str(root / "run")
    assert main(["gen-data", "--out", data, "--count", "6",
                 "--canvas", "64", "--classes", "3", "--seed", "5"]) == 0
    assert main(["build", "--toy", "8", "--input-hw", "64",
                 "--out", clf]) == 0
    assert main(["convert", "--graph", clf, "--classes", "3",
                 "--output-stride", "16", "--out", seg]) == 0
    assert main(["train", "--graph", seg,
                 "--data", os.path.join(data, "manifest.json"),
                 "--out", out, "--iters", "3", "--batch-size", "2",
                 "--no-augment", "--seed", "1"]) == 0
    return {"root": root, "data": data, "clf": clf, "seg": seg, "out": out,
            "ckpt": os.path.join(out, "checkpoint.sunc"),
            "manifest": os.path.join(data, "manifest.json")}


def test_train_outputs(pipeline, capsys):
    capsys.readouterr()
    assert os.path.exists(pipeline["ckpt"])
    lines = Path(pipeline["out"], "loss.csv").read_text().strip()
    assert lines.split("\n")[0] == "iter,lr,loss"
    assert len(lines.split("\n")) == 4


def test_train_crop_off_the_graph_size(pipeline, tmp_path, capsys):
    # the pipeline's graph is declared at 64x64
    out = tmp_path / "run"
    rc, _, _ = run(capsys, "train", "--graph", pipeline["seg"],
                   "--data", pipeline["manifest"], "--out", str(out),
                   "--iters", "2", "--batch-size", "2", "--crop", "48x40",
                   "--seed", "2")
    assert rc == 0
    assert len((out / "loss.csv").read_text().strip().split("\n")) == 3


def test_eval_prints_miou(pipeline, tmp_path, capsys):
    csv = str(tmp_path / "m.csv")
    rc, out, _ = run(capsys, "eval", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"],
                     "--scales", "1.0", "--csv", csv)
    assert rc == 0
    assert "mIoU:" in out
    rows = Path(csv).read_text().strip().split("\n")
    assert rows[0] == "class,iou"
    assert rows[-1].startswith("miou,")
    float(rows[-1].split(",")[1])


def test_eval_multi_scale_flip(pipeline, capsys):
    rc, out, _ = run(capsys, "eval", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"],
                     "--scales", "0.5,1.0", "--flip")
    assert rc == 0
    assert "mIoU:" in out


@pytest.mark.parametrize("flags,message", [
    (["--max-rotate", "inf"], "bad max_rotate inf"),
    (["--scale-range", "0.5,inf"], "bad scale range"),
], ids=["max-rotate", "scale-range"])
def test_train_bad_augment_value_exits_1(pipeline, tmp_path, capsys, flags,
                                         message):
    rc, _, err = run(capsys, "train", "--graph", pipeline["seg"],
                     "--data", pipeline["manifest"], "--out", str(tmp_path / "run"),
                     "--iters", "1", *flags)
    assert rc == 1
    assert message in err


@pytest.mark.parametrize("flags,message", [
    (["--lr", "nan"], "lr0 nan outside"),
    (["--lr", "inf"], "lr0 inf outside"),
    (["--lr", "-0.1"], "lr0 -0.1 outside"),
    (["--weight-decay", "nan"], "weight_decay nan outside"),
    (["--weight-decay", "inf"], "weight_decay inf outside"),
    (["--step-factor", "nan"], "step_factor nan outside"),
    (["--schedule", "step", "--step-every", "1", "--step-factor", "inf"],
     "step_factor inf outside"),
], ids=["lr-nan", "lr-inf", "lr-negative", "weight-decay-nan",
        "weight-decay-inf", "step-factor-nan", "step-factor-inf"])
def test_train_bad_optimizer_value_exits_1(pipeline, tmp_path, capsys, flags,
                                           message):
    out = tmp_path / "run"
    rc, _, err = run(capsys, "train", "--graph", pipeline["seg"],
                     "--data", pipeline["manifest"], "--out", str(out),
                     "--iters", "1", "--no-augment", *flags)
    assert rc == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "infer"])
def test_non_finite_scale_exits_1(pipeline, tmp_path, capsys, cmd):
    extra = ["--out", str(tmp_path / "pred")] if cmd == "infer" else []
    rc, _, err = run(capsys, cmd, "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"], "--scales", "1.0,inf", *extra)
    assert rc == 1
    assert "scale inf is not finite" in err


def test_infer_writes_predictions(pipeline, tmp_path, capsys):
    out_dir = str(tmp_path / "pred")
    rc, out, _ = run(capsys, "infer", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"], "--out", out_dir)
    assert rc == 0
    files = sorted(os.listdir(out_dir))
    assert files == [f"pred_{i:05d}.pgm" for i in range(6)]
    pred = read_pgm(os.path.join(out_dir, files[0]))
    assert pred.shape == (64, 64)
    assert pred.max() < 3


def test_dump_activations_levels(pipeline, tmp_path, capsys):
    out_dir = str(tmp_path / "acts")
    rc, out, _ = run(capsys, "dump-activations", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"], "--index", "0",
                     "--out", out_dir)
    assert rc == 0
    files = os.listdir(out_dir)
    assert any(f.startswith("level") and f.endswith(".pgm") for f in files)
    assert "prediction.pgm" in files and "activations.sunc" in files


def test_dump_activations_bad_index(pipeline, capsys):
    rc, _, err = run(capsys, "dump-activations", "--graph", pipeline["seg"],
                     "--data", pipeline["manifest"], "--index", "99",
                     "--out", "/tmp/unused")
    assert rc == 1
    assert "index 99" in err


def test_eval_checkpoint_digest_mismatch(pipeline, capsys):
    rc, _, err = run(capsys, "eval", "--graph", pipeline["clf"],
                     "--checkpoint", pipeline["ckpt"],
                     "--data", pipeline["manifest"])
    assert rc == 1
    assert "bound to graph" in err


def test_data_root_env(pipeline, monkeypatch, capsys):
    monkeypatch.setenv("SUNET_DATA_ROOT", pipeline["data"])
    rc, out, _ = run(capsys, "eval", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"])
    assert rc == 0
    assert "mIoU:" in out


def test_data_root_unset(pipeline, monkeypatch, capsys):
    monkeypatch.delenv("SUNET_DATA_ROOT", raising=False)
    rc, _, err = run(capsys, "eval", "--graph", pipeline["seg"],
                     "--checkpoint", pipeline["ckpt"])
    assert rc == 1
    assert "SUNET_DATA_ROOT" in err


def test_missing_data_manifest_exits_2(pipeline, capsys):
    rc, _, _ = run(capsys, "eval", "--graph", pipeline["seg"],
                   "--checkpoint", pipeline["ckpt"],
                   "--data", "/no/such/manifest.json")
    assert rc == 2
