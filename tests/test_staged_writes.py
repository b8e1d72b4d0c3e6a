"""`data.staged`, the one code path that puts an artifact in place, and what
a process killed at any of its writes leaves behind.

The kill harness runs one `ragsel` command at a time in a forked child that
exits with status 137 in place of its k-th `os.replace`, `os.rename`,
`np.save` or `Path.write_text`, for k = 1, 2, ... until the child exits by
itself. After every kill each output holds its earlier bytes, nothing, or a
complete artifact that its reader accepts, and a reader never answers with
hits or records that neither a clean earlier run nor a clean new run gives.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import shutil
import signal
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ragsel.cli import main
from ragsel.corpus import Corpus, CorpusError, ingest
from ragsel.data import MalformedRecordError, staged
from ragsel.dpo import load_pairs
from ragsel.manifest import RunManifest
from ragsel.retrieval import build_index
from ragsel.rgp import load_instances

KILLED = 137


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


# What `staged` may leave beside a path when its writer is killed: no reader opens it.
_SIBLING = re.compile(r"\..+\.[0-9a-f]{16}\.(tmp|old)")


def _tree(path: Path):
    """A file's bytes, a directory's {relative name: bytes} without the
    siblings a killed writer left, or None if missing."""
    if path.is_dir():
        return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*"))
                if p.is_file() and not any(map(_SIBLING.fullmatch, p.relative_to(path).parts))}
    return path.read_bytes() if path.exists() else None


class TestStaged:
    @pytest.mark.parametrize("kind", ["file", "directory"])
    def test_a_block_that_raises_leaves_the_old_artifact_and_no_sibling(self, tmp_path, kind):
        out = tmp_path / "out"
        if kind == "file":
            out.write_bytes(b"earlier\n")
        else:
            out.mkdir()
            (out / "index.json").write_bytes(b"{}")
        before = _tree(out)
        with pytest.raises(RuntimeError, match="partway"):
            with staged(out) as tmp:
                if kind == "file":
                    tmp.write_bytes(b"half")
                else:
                    tmp.mkdir()
                    (tmp / "index.json").write_bytes(b"half")
                raise RuntimeError("partway")
        assert _tree(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_a_directory_replaces_a_directory_of_replaceable_names_and_leaves_no_old_one(self, tmp_path):
        out = tmp_path / "index"
        out.mkdir()
        (out / "index.json").write_bytes(b"old")
        (out / "rows.npy").write_bytes(b"old rows")
        with staged(out, {"index.json", "rows.npy", "manifest.json"}) as tmp:
            tmp.mkdir()
            (tmp / "index.json").write_bytes(b"new")
        assert _tree(out) == {"index.json": b"new"}
        assert [p.name for p in tmp_path.iterdir()] == ["index"]

    @pytest.mark.parametrize("replaces", [(), ("index.json",)])
    def test_a_directory_holding_other_names_is_refused_and_left_as_it_was(self, tmp_path, replaces):
        out = tmp_path / "index"
        out.mkdir()
        (out / "index.json").write_bytes(b"old")
        (out / "notes.txt").write_bytes(b"mine")
        with pytest.raises(OSError):
            with staged(out, replaces) as tmp:
                tmp.mkdir()
                (tmp / "index.json").write_bytes(b"new")
        assert _tree(out) == {"index.json": b"old", "notes.txt": b"mine"}
        assert [p.name for p in tmp_path.iterdir()] == ["index"]

    def test_a_failed_rename_into_place_puts_the_earlier_directory_back(self, tmp_path, monkeypatch):
        out = tmp_path / "index"
        out.mkdir()
        (out / "index.json").write_bytes(b"old")
        rename, calls = os.rename, itertools.count(1)

        def second_fails(src, dst):
            if next(calls) == 2:
                raise OSError("rename refused")
            rename(src, dst)

        monkeypatch.setattr(os, "rename", second_fails)
        with pytest.raises(OSError, match="rename refused"):
            with staged(out, {"index.json"}) as tmp:
                tmp.mkdir()
                (tmp / "index.json").write_bytes(b"new")
        assert _tree(out) == {"index.json": b"old"}
        assert [p.name for p in tmp_path.iterdir()] == ["index"]

    def test_a_directory_over_a_regular_file_is_an_oserror_that_leaves_the_file(self, tmp_path):
        out = tmp_path / "index"
        out.write_bytes(b"not a directory\n")
        with pytest.raises(OSError):
            with staged(out) as tmp:
                tmp.mkdir()
                (tmp / "index.json").write_bytes(b"new")
        assert out.read_bytes() == b"not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["index"]


def test_save_refuses_a_directory_that_is_not_an_index(tmp_path):
    _write_jsonl(tmp_path / "p.jsonl", [{"id": "a1", "text": "apple pie"}])
    index = build_index(ingest(tmp_path / "p.jsonl", tmp_path / "corpus"))
    out = tmp_path / "notes"
    out.mkdir()
    (out / "todo.txt").write_bytes(b"mine")
    with pytest.raises(OSError):
        index.save(out)
    assert _tree(out) == {"todo.txt": b"mine"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "notes", "p.jsonl"]


def test_ingest_refuses_a_corpus_that_another_ingest_put_in_place_meanwhile(tmp_path):
    """Two ingests to one `--out`: the one that finishes second fails and
    leaves the first one's corpus as it was."""
    _write_jsonl(tmp_path / "p.jsonl", [{"id": "a1", "text": "apple pie"}])
    out = tmp_path / "corpus"

    def passages():
        ingest(tmp_path / "p.jsonl", out)  # the other ingest, done after this one's check of `out`
        yield {"id": "b1", "text": "pear tart"}

    with pytest.raises(OSError):
        ingest(passages(), out)
    assert [(p.id, p.text) for p in Corpus(out)] == [("a1", "apple pie")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "p.jsonl"]


@contextlib.contextmanager
def _inside(w: Path):
    """Run from `w`, so that a command given relative paths writes the same
    bytes in every copy of the work directory."""
    cwd = os.getcwd()
    os.chdir(w)
    try:
        yield
    finally:
        os.chdir(cwd)


def _killed_at(k: int, w: Path, command: str) -> int:
    """The exit code of `ragsel command`, run from `w` in a forked child whose
    k-th write exits with KILLED in its place."""
    with _inside(w):
        pid = os.fork()
        if pid == 0:  # the child: it never returns to the test runner
            code = 99
            try:
                signal.alarm(60)  # a child that hangs ends, and fails the test
                calls = itertools.count(1)

                def dying(write):
                    def dies_at_k(*args, **kwargs):
                        if next(calls) == k:
                            os._exit(KILLED)
                        return write(*args, **kwargs)

                    return dies_at_k

                os.replace, os.rename, np.save = dying(os.replace), dying(os.rename), dying(np.save)
                Path.write_text = dying(Path.write_text)
                sys.stdout = sys.stderr = io.StringIO()
                code = main(command.split())
            finally:
                os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _cli(w: Path, command: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `ragsel command`, run from `w`."""
    out, err = io.StringIO(), io.StringIO()
    with _inside(w), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return code, out.getvalue(), err.getvalue()


REFUSED = "refused"


def _read_hits(w: Path):
    code, out, err = _cli(w, "retrieve --index idx --query apple")
    if code == 1:
        json.loads(err.strip().splitlines()[-1])
        return REFUSED
    assert code == 0, err
    return json.loads(out)["hits"]


def _read_corpus(w: Path):
    if not (w / "c").exists():
        return None
    try:
        return [(p.id, p.title, p.text) for p in Corpus(w / "c")]
    except CorpusError:
        return REFUSED


def _reader(name: str, load):
    """What `load` reads from the output `name`: None if it is missing."""
    def read(w: Path):
        if not (w / name).exists():
            return None
        try:
            return load(w / name)
        except (MalformedRecordError, ValueError):
            return REFUSED

    return read


def _pairs(path: Path) -> list[dict]:
    return [pair.to_dict() for pair in load_pairs(path)]


def _instances(path: Path) -> list[dict]:
    return [instance.to_dict() for instance in load_instances(path)]


def _rerun_from_cache(w: Path):
    """The records a later run makes from the cache a killed run left."""
    code, _out, err = _cli(w, "run --mode self-select --qa qa.jsonl --index index --script script.jsonl"
                              " --cache cache --out again.jsonl")
    assert code == 0, err
    return (w / "again.jsonl").read_bytes()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The commands' inputs: corpus A and corpus C, whose passages have the
    same ids and token counts with the texts swapped, and a four-question QA
    set with its corpus, index, script and instances, two pair files and two
    results files."""
    w = tmp_path_factory.mktemp("staged") / "inputs"
    w.mkdir()
    _write_jsonl(w / "a.jsonl", [{"id": "a1", "text": "apple pie recipe"}, {"id": "a2", "text": "pear tart"}])
    _write_jsonl(w / "c.jsonl", [{"id": "a1", "text": "tart pear"}, {"id": "a2", "text": "recipe pie apple"}])
    _write_jsonl(w / "passages.jsonl", [{"id": f"d{i}", "text": f"marker{i} article says gadget {i}"}
                                        for i in range(1, 5)])
    qa = [{"id": f"q{i}", "question": f"What about marker{i}?", "golden_answers": [f"gadget {i}"]}
          for i in range(1, 5)]
    _write_jsonl(w / "qa-old.jsonl", qa[:2])
    _write_jsonl(w / "qa.jsonl", qa)
    script = []
    for i in range(1, 5):
        internal, grounded = (f"gadget {i}", f"bogus {i}") if i % 2 else (f"bogus {i}", f"gadget {i}")
        script += [
            {"match_key": f"using your own knowledge&&marker{i}", "reply": f"Explanation: m{i}. Answer: {internal}"},
            {"match_key": f"using the passages&&marker{i}", "reply": f"Explanation: p{i}. Answer: {grounded}"},
            {"match_key": f"two candidate responses&&marker{i}", "reply": f"Explanation: s. Answer: gadget {i}"},
        ]
    _write_jsonl(w / "script.jsonl", script)
    for command in (
        "corpus ingest --passages passages.jsonl --out corpus",
        "index build --corpus corpus --out index",
        "corpus ingest --passages a.jsonl --out corpus-a",
        "corpus ingest --passages c.jsonl --out corpus-c",
        "rgp build --qa qa.jsonl --index index --script script.jsonl --out instances.jsonl",
        "rgp augment --in instances.jsonl --k 1 --seed 5 --out pairs-old.jsonl",
        "rgp augment --in instances.jsonl --k 2 --seed 6 --out pairs-new.jsonl",
        "run --mode self-select --qa qa-old.jsonl --index index --script script.jsonl --out r-old.jsonl",
        "run --mode self-select --qa qa.jsonl --index index --script script.jsonl --out r-new.jsonl",
    ):
        assert _cli(w, command)[0] == 0
    return w


# (the commands that make the earlier state, the killed command, its outputs
# with the data output first, the reader of what it writes)
_CASES = {
    "corpus-ingest": ([], "corpus ingest --passages passages.jsonl --out c", ["c"], _read_corpus),
    "index-build-over-an-index": (
        ["index build --corpus corpus-a --out idx"], "index build --corpus corpus-c --out idx", ["idx"], _read_hits,
    ),
    "run-with-cache": (
        ["run --mode self-select --qa qa-old.jsonl --index index --script script.jsonl --cache cache --out r.jsonl"],
        "run --mode self-select --qa qa.jsonl --index index --script script.jsonl --cache cache --out r.jsonl",
        ["r.jsonl", "r.jsonl.manifest.json", "cache"], _rerun_from_cache,
    ),
    "rgp-build-with-cache": (
        ["rgp build --qa qa-old.jsonl --index index --script script.jsonl --cache cache --out inst.jsonl"],
        "rgp build --qa qa.jsonl --index index --script script.jsonl --cache cache --out inst.jsonl",
        ["inst.jsonl", "inst.jsonl.manifest.json", "cache"], _reader("inst.jsonl", _instances),
    ),
    "rgp-augment": (
        ["rgp augment --in instances.jsonl --k 1 --seed 5 --out pairs.jsonl"],
        "rgp augment --in instances.jsonl --k 2 --seed 6 --out pairs.jsonl",
        ["pairs.jsonl", "pairs.jsonl.manifest.json"], _reader("pairs.jsonl", _pairs),
    ),
    "dpo-export": (
        ["dpo export --in pairs-old.jsonl --out train.jsonl"], "dpo export --in pairs-new.jsonl --out train.jsonl",
        ["train.jsonl", "train.jsonl.manifest.json"], _reader("train.jsonl", _pairs),
    ),
    "eval-out": (
        ["eval --pred r-old.jsonl --qa qa-old.jsonl --out report.json"],
        "eval --pred r-new.jsonl --qa qa.jsonl --out report.json",
        ["report.json", "report.json.manifest.json"], _reader("report.json", lambda path: json.loads(path.read_text())),
    ),
}


def _is_manifest_of(tree: bytes, command: str) -> bool:
    manifest = json.loads(tree)
    return list(manifest) == [f.name for f in fields(RunManifest)] and manifest["command_line"] == f"ragsel {command}"


def _check_output(name: str, tree, old, new, command: str) -> None:
    """`tree` is the output as it was, missing, or whole as the clean new run wrote it."""
    if tree is None or tree == old:
        return
    if name.endswith("manifest.json"):  # it holds its run's time, so its bytes differ run to run
        assert _is_manifest_of(tree, command), name
    elif name == "cache":  # a killed run may leave any subset of the new entries
        assert all(new.get(entry) == data for entry, data in tree.items()), sorted(tree)
    else:
        if isinstance(tree, dict):  # a directory's own manifest is checked on its own
            manifest = tree.pop("manifest.json", None)
            new = {entry: data for entry, data in new.items() if entry != "manifest.json"}
            assert manifest is None or _is_manifest_of(manifest, command), name
        assert tree == new, name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the harness forks")
@pytest.mark.parametrize("case", list(_CASES))
def test_a_command_killed_at_any_write_leaves_each_output_whole_or_as_it_was(inputs, tmp_path, case):
    earlier_commands, command, outputs, read = _CASES[case]
    earlier = tmp_path / "earlier"
    shutil.copytree(inputs, earlier)
    for earlier_command in earlier_commands:
        assert _cli(earlier, earlier_command)[0] == 0

    def copy(name: str) -> Path:
        return Path(shutil.copytree(earlier, tmp_path / name))

    old, new = copy("old"), copy("new")
    assert _cli(new, command)[0] == 0
    old_trees = {name: _tree(old / name) for name in outputs}
    new_trees = {name: _tree(new / name) for name in outputs}
    assert old_trees[outputs[0]] != new_trees[outputs[0]]  # else a kill could not show
    views = (read(old), read(new))
    assert REFUSED not in views
    for k in itertools.count(1):
        w = copy(f"k{k}")
        code = _killed_at(k, w, command)
        assert [p.name for p in w.rglob(".*") if not _SIBLING.fullmatch(p.name)] == []
        view = read(w)
        assert view in (*views, None, REFUSED), f"killed at write {k}, the reader got {view}"
        for name in outputs:
            _check_output(name, _tree(w / name), old_trees[name], new_trees[name], command)
        if code != KILLED:
            break
        assert k < 50
    assert code == 0
    assert read(w) == views[1]
    assert list(w.rglob(".*")) == []  # a run that completes leaves no sibling
