"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.service.protocol import QUERY_OPS

#: The table's ops whose arguments are all integers.
FIXED_OPS = [op for op, query in QUERY_OPS.items() if "queries" not in query.args]


@pytest.fixture()
def contact_file(tmp_path):
    path = tmp_path / "g.txt"
    assert main(["generate", "comm-net", "--scale", "0.1", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def chrono_file(contact_file, tmp_path):
    path = tmp_path / "g.chrono"
    assert main(["compress", str(contact_file), "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_writes_contact_list(self, contact_file, capsys):
        assert contact_file.exists()
        text = contact_file.read_text()
        assert text.startswith("# kind=interval")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "bogus", "--out", "x.txt"])


class TestCompressInspect:
    def test_compress_reports_ratio(self, contact_file, tmp_path, capsys):
        out = tmp_path / "g.chrono"
        assert main(["compress", str(contact_file), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "bits/contact" in captured
        assert out.exists()

    def test_compress_with_aggregation_is_smaller(self, contact_file, tmp_path):
        fine = tmp_path / "fine.chrono"
        coarse = tmp_path / "coarse.chrono"
        main(["compress", str(contact_file), "--out", str(fine)])
        main(["compress", str(contact_file), "--out", str(coarse),
              "--resolution", "50"])
        assert coarse.stat().st_size < fine.stat().st_size

    def test_compress_with_explicit_zeta(self, contact_file, tmp_path, capsys):
        out = tmp_path / "g.chrono"
        assert main(["compress", str(contact_file), "--out", str(out),
                     "--zeta", "5"]) == 0
        assert "k=5" in capsys.readouterr().out

    def test_inspect(self, chrono_file, capsys):
        assert main(["inspect", str(chrono_file)]) == 0
        captured = capsys.readouterr().out
        assert "bits/contact" in captured
        assert "interval" in captured


class TestQuery:
    def test_neighbors_query(self, chrono_file, capsys):
        assert main(["query", str(chrono_file), "neighbors", "0", "0", "100"]) == 0
        assert capsys.readouterr().out.strip()

    def test_edge_query(self, chrono_file, capsys):
        assert main(["query", str(chrono_file), "has_edge", "0", "1", "0", "100"]) == 0
        assert capsys.readouterr().out.strip() in ("active", "inactive")

    def test_timestamps_query(self, chrono_file, capsys):
        assert main(["query", str(chrono_file), "edge_timestamps", "0", "1"]) == 0
        assert capsys.readouterr().out.strip()

    def test_wrong_arity_returns_error(self, chrono_file, capsys):
        assert main(["query", str(chrono_file), "neighbors", "0"]) == 2
        assert main(["query", str(chrono_file), "has_edge", "0", "1"]) == 2
        assert main(["query", str(chrono_file), "edge_timestamps", "0"]) == 2

    def test_query_matches_library(self, contact_file, chrono_file, capsys):
        from repro.graph.io import read_contact_text

        graph = read_contact_text(contact_file)
        main(["query", str(chrono_file), "neighbors", "0", "0", "1000"])
        out = capsys.readouterr().out.strip()
        got = [] if out == "(none)" else list(map(int, out.split()))
        assert got == graph.ref_neighbors(0, 0, 1000)


class TestQueryOps:
    """``repro query`` offers exactly the table's integer-argument ops."""

    def test_help_lists_the_table_ops(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "--help"])
        assert "{" + ",".join(FIXED_OPS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("op", FIXED_OPS)
    def test_wrong_arity_names_the_arguments(self, chrono_file, op, capsys):
        names = QUERY_OPS[op].args
        argv = ["query", str(chrono_file), op] + ["0"] * (len(names) + 1)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"{op} query needs: {' '.join(names)}\n"

    def test_every_op_prints_alike_on_file_store_and_service(
        self, contact_file, chrono_file, tmp_path, capsys
    ):
        from repro.graph.io import read_contact_text
        from repro.service.server import GraphService, ServiceConfig

        store = str(tmp_path / "g.store")
        assert main(["ingest", "--init", store, str(contact_file),
                     "--seal", "400"]) == 0
        graph = read_contact_text(contact_file)
        c = next(c for c in graph.contacts if c.duration > 0)
        values = {"u": c.u, "v": c.v, "t_start": c.time, "t_end": c.time + 40}
        capsys.readouterr()
        with GraphService(store, ServiceConfig(workers=1)) as svc:
            host, port = svc.address
            targets = [str(chrono_file), store, f"tcp://{host}:{port}"]
            for op in FIXED_OPS:
                args = [str(values[name]) for name in QUERY_OPS[op].args]
                printed = []
                for target in targets:
                    assert main(["query", target, op] + args) == 0, target
                    printed.append(capsys.readouterr().out)
                assert printed[0] == printed[1] == printed[2], op
                assert printed[0] not in ("(none)\n", "inactive\n"), op

    def test_node_outside_the_range_exits_2_on_file_store_and_service(
        self, contact_file, chrono_file, tmp_path, capsys
    ):
        from repro.core import load_compressed
        from repro.service.server import GraphService, ServiceConfig
        from repro.storage.segments import SegmentStore

        store = str(tmp_path / "g.store")
        assert main(["ingest", "--init", store, str(contact_file),
                     "--seal", "400"]) == 0
        nodes = {str(chrono_file): load_compressed(chrono_file).num_nodes}
        with SegmentStore.open(store, read_only=True) as opened:
            nodes[store] = opened.graph.num_nodes
        values = {"v": 0, "t_start": 0, "t_end": 100}
        capsys.readouterr()
        with GraphService(store, ServiceConfig(workers=1)) as svc:
            host, port = svc.address
            nodes[f"tcp://{host}:{port}"] = nodes[store]
            for target, n in nodes.items():
                for op in FIXED_OPS:
                    names = QUERY_OPS[op].args
                    if "u" not in names:
                        continue
                    for u in (-1, n):
                        args = [str(u if name == "u" else values[name])
                                for name in names]
                        assert main(["query", target, op] + args) == 2, (
                            target, op, u)
                        captured = capsys.readouterr()
                        lines = captured.err.splitlines()
                        assert captured.out == "" and len(lines) == 1, lines
                        assert lines[0].startswith("error: "), lines
                        assert f"node {u} outside [0, {n})" in lines[0], lines


class TestSweepAndStats:
    def test_sweep_prints_all_methods(self, capsys):
        assert main(["sweep", "comm-net", "--scale", "0.1",
                     "--methods", "Raw", "ChronoGraph"]) == 0
        captured = capsys.readouterr().out
        assert "Raw" in captured
        assert "ChronoGraph" in captured

    def test_gapstats(self, contact_file, capsys):
        assert main(["gapstats", str(contact_file)]) == 0
        captured = capsys.readouterr().out
        assert "mean" in captured
        assert "previous" in captured

    def test_gapstats_with_resolution(self, contact_file, capsys):
        assert main(["gapstats", str(contact_file), "--resolution", "10",
                     "--strategy", "minimum"]) == 0
        assert "minimum" in capsys.readouterr().out


class TestFiguresCommand:
    def test_exports_from_real_results(self, tmp_path, capsys):
        code = main(["figures", "--out", str(tmp_path / "csv")])
        out = capsys.readouterr().out
        if code == 0:
            assert "wrote" in out
            assert list((tmp_path / "csv").glob("*.csv"))
        else:
            assert "no figure results" in out

    def test_empty_results_dir(self, tmp_path, capsys):
        code = main(["figures", "--out", str(tmp_path / "csv"),
                     "--dir", str(tmp_path / "none")])
        assert code == 1
        assert "no figure results" in capsys.readouterr().out


@pytest.fixture()
def corrupt_chrono(chrono_file, tmp_path):
    blob = bytearray(chrono_file.read_bytes())
    blob[-2] ^= 0xFF  # lands in the final section's CRC32 footer
    path = tmp_path / "corrupt.chrono"
    path.write_bytes(bytes(blob))
    return path


@pytest.fixture()
def overlong_offset_chrono(chrono_file, tmp_path):
    """A CRC-valid container whose last offset code runs 3,000 bytes."""
    import struct
    import zlib

    blob = chrono_file.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 6)
    pos = 10 + header_len + 4
    for _ in range(3):  # skip to the last section, the timestamp offsets
        (length,) = struct.unpack_from("<Q", blob, pos + 1)
        pos += 9 + length + 4
    tag, length = struct.unpack_from("<BQ", blob, pos)
    body = blob[pos + 9 : pos + 9 + length]
    body = body[:-1] + b"\xff" * 3000 + body[-1:]
    path = tmp_path / "overlong.chrono"
    path.write_bytes(
        blob[:pos]
        + struct.pack("<BQ", tag, len(body))
        + body
        + struct.pack("<I", zlib.crc32(body))
    )
    return path


class TestErrorHandling:
    """Missing/corrupt inputs: one stderr line, nonzero exit, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["compress", "{missing}", "--out", "x.chrono"],
        ["inspect", "{missing}"],
        ["query", "{missing}", "neighbors", "0", "0", "9"],
        ["verify", "{missing}"],
        ["stats", "{missing}"],
        ["gapstats", "{missing}"],
    ])
    def test_missing_file_exits_2(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "nope.bin")
        argv = [a.format(missing=missing) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["inspect", "{path}"],
        ["query", "{path}", "neighbors", "0", "0", "9"],
    ])
    def test_corrupt_container_exits_2(self, corrupt_chrono, capsys, argv):
        argv = [a.format(path=str(corrupt_chrono)) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_compress_malformed_lines_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 5\nnot a contact line at all\n")
        assert main(["compress", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    def test_compress_corrupt_gzip_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt.gz"
        bad.write_bytes(b"\x1f\x8b\x08\x00" + b"\xa5" * 40)
        assert main(["compress", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "gzip" in err
        assert "Traceback" not in err


class TestVerifyExitCodes:
    """verify: 0 sound, 1 corrupt, 2 unreadable."""

    def test_sound_container_exits_0(self, chrono_file, capsys):
        assert main(["verify", str(chrono_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_checksum_mismatch_exits_1(self, corrupt_chrono, capsys):
        assert main(["verify", str(corrupt_chrono)]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_truncated_header_exits_2(self, chrono_file, tmp_path, capsys):
        stub = tmp_path / "stub.chrono"
        stub.write_bytes(chrono_file.read_bytes()[:7])
        assert main(["verify", str(stub)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_magic_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.chrono"
        junk.write_bytes(b"this was never a chrono container")
        assert main(["verify", str(junk)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deep_scan_sound_container(self, chrono_file, capsys):
        assert main(["verify", str(chrono_file), "--deep"]) == 0
        assert "deep scan" in capsys.readouterr().out

    def test_salvage_sound_container(self, chrono_file, capsys):
        assert main(["verify", str(chrono_file), "--salvage"]) == 0
        assert "intact" in capsys.readouterr().out

    def test_salvage_corrupt_container_exits_1(
        self, corrupt_chrono, overlong_offset_chrono, capsys
    ):
        for path in (corrupt_chrono, overlong_offset_chrono):
            assert main(["verify", str(path), "--salvage"]) == 1
            assert "recovered" in capsys.readouterr().out

    def test_salvage_never_tracebacks_on_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.chrono"
        junk.write_bytes(b"CHRG" + b"\x02" + b"\x99" * 40)
        code = main(["verify", str(junk), "--salvage"])
        assert code in (1, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_verify_against_reference(self, contact_file, chrono_file, capsys):
        assert main(["verify", str(chrono_file),
                     "--against", str(contact_file)]) == 0
        assert "OK" in capsys.readouterr().out


class TestDurabilityCommands:
    """``ingest`` / ``recover`` / ``compact`` exit codes and behaviour."""

    @pytest.fixture()
    def more_contacts(self, tmp_path):
        path = tmp_path / "more.txt"
        path.write_text(
            "# kind=interval\n"
            "0 1 10 3\n"
            "1 2 14 2\n"
            "2 0 20 1\n"
        )
        return path

    @pytest.fixture()
    def store(self, contact_file, tmp_path, capsys):
        """``contact_file`` ingested into a new store and sealed.

        One segment and an empty tail, at generation 1.
        """
        path = str(tmp_path / "g.store")
        assert main(["ingest", "--init", path, str(contact_file)]) == 0
        assert main(["compact", path]) == 0
        capsys.readouterr()
        return path

    def test_ingest_twice_appends(self, store, more_contacts, capsys):
        assert main(["ingest", store, str(more_contacts)]) == 0
        assert main(["ingest", store, str(more_contacts)]) == 0
        capsys.readouterr()
        assert main(["recover", store]) == 0
        assert "tail: 6 contacts" in capsys.readouterr().out

    def test_kind_mismatch_exits_2(self, store, tmp_path, capsys):
        point = tmp_path / "point.txt"
        point.write_text("# kind=point\n0 1 5\n")
        assert main(["ingest", store, str(point)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "point" in err

    def test_compact_folds_and_resets(self, store, more_contacts, capsys):
        assert main(["ingest", store, str(more_contacts)]) == 0
        capsys.readouterr()
        assert main(["compact", store]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "generation 2" in out
        assert main(["recover", store]) == 0
        assert "tail: 0 contacts" in capsys.readouterr().out

    def test_compact_with_empty_tail_exits_0(self, store, capsys):
        assert main(["compact", store]) == 0
        assert "compacted" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["ingest", "compact", "recover", "status"])
    def test_plain_chrono_points_to_ingest_init(
        self, chrono_file, more_contacts, capsys, command
    ):
        argv = [command, str(chrono_file)]
        if command == "ingest":
            argv.append(str(more_contacts))
        before = chrono_file.read_bytes()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"{chrono_file} is not a segment store" in err
        assert "repro ingest --init" in err
        assert chrono_file.read_bytes() == before

    @pytest.mark.parametrize("argv", [
        ["ingest", "{missing}", "also-missing.txt"],
        ["recover", "{missing}"],
        ["compact", "{missing}"],
    ])
    def test_missing_base_exits_2(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "nope.chrono")
        argv = [a.format(missing=missing) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_permission_denied_exits_2_one_line(
        self, chrono_file, capsys, monkeypatch
    ):
        # Running as root makes chmod 000 ineffective; inject the error at
        # the read instead.
        import pathlib

        def deny(self, *a, **k):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(pathlib.Path, "read_bytes", deny)
        assert main(["verify", str(chrono_file)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Permission denied" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestSegmentStoreCommands:
    """``ingest --init`` / ``status`` / ``compact`` / ``recover`` on stores."""

    @pytest.fixture()
    def point_contacts(self, tmp_path):
        path = tmp_path / "points.txt"
        lines = ["# kind=point"]
        lines += [f"{i % 5} {(i + 1) % 5} {i * 3}" for i in range(30)]
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.fixture()
    def store_dir(self, tmp_path):
        return tmp_path / "flows.store"

    def test_init_ingest_status_roundtrip(self, store_dir, point_contacts, capsys):
        assert main(["ingest", "--init", str(store_dir), str(point_contacts),
                     "--seal", "10"]) == 0
        out = capsys.readouterr().out
        assert "created segment store" in out
        assert "ingested 30 contacts" in out
        assert main(["status", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "segments:" in out and "compactor:" in out

    def test_reingest_without_init_appends(self, store_dir, point_contacts, capsys):
        assert main(["ingest", "--init", str(store_dir), str(point_contacts),
                     "--seal", "10"]) == 0
        assert main(["ingest", str(store_dir), str(point_contacts)]) == 0
        out = capsys.readouterr().out
        assert "ingested 30 contacts" in out
        assert main(["recover", str(store_dir)]) == 0
        capsys.readouterr()
        from repro.storage.segments import SegmentStore

        with SegmentStore.open(store_dir, read_only=True) as store:
            assert store.graph.num_contacts == 60

    def test_compact_merges_and_reports_generation(
        self, store_dir, point_contacts, capsys
    ):
        assert main(["ingest", "--init", str(store_dir), str(point_contacts),
                     "--seal", "5"]) == 0
        capsys.readouterr()
        assert main(["compact", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "merge(s)" in out and "generation" in out
        assert main(["status", str(store_dir)]) == 0

    def test_query_store_prints_like_served_store(
        self, store_dir, point_contacts, capsys
    ):
        from repro.service.server import GraphService, ServiceConfig

        # Seal every 12 contacts: two segments plus six contacts in the tail.
        assert main(["ingest", "--init", str(store_dir), str(point_contacts),
                     "--seal", "12"]) == 0
        capsys.readouterr()
        queries = [
            ["neighbors", "1", "0", "90"],
            ["neighbors", "4", "60", "90"],
            ["has_edge", "3", "4", "0", "90"],
            ["has_edge", "3", "0", "0", "90"],
            ["edge_timestamps", "2", "3"],
        ]
        local = []
        for q in queries:
            assert main(["query", str(store_dir)] + q) == 0
            local.append(capsys.readouterr().out)
        with GraphService(str(store_dir), ServiceConfig(workers=1)) as svc:
            host, port = svc.address
            for q, want in zip(queries, local):
                assert main(["query", f"tcp://{host}:{port}"] + q) == 0
                assert capsys.readouterr().out == want
        from repro.graph.io import read_contact_text

        graph = read_contact_text(point_contacts)
        assert local[1].split() == [str(v) for v in graph.ref_neighbors(4, 60, 90)]

    def test_status_on_non_store_exits_2(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.mkdir()
        assert main(["status", str(plain)]) == 2
        err = capsys.readouterr().err
        assert "not a segment store" in err

    def test_status_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nope")]) == 2

    def test_kind_mismatch_into_store_exits_2(
        self, store_dir, point_contacts, tmp_path, capsys
    ):
        assert main(["ingest", "--init", str(store_dir), str(point_contacts)]) == 0
        interval = tmp_path / "interval.txt"
        interval.write_text("# kind=interval\n0 1 5 2\n")
        assert main(["ingest", str(store_dir), str(interval)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "interval" in err

    def test_degraded_store_status_exits_1(self, store_dir, point_contacts, capsys):
        import pathlib

        assert main(["ingest", "--init", str(store_dir), str(point_contacts),
                     "--seal", "10"]) == 0
        victim = sorted(pathlib.Path(store_dir).glob("seg-*.chrono"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["status", str(store_dir)]) == 1
        out = capsys.readouterr().out
        assert "degraded" in out and "quarantined:" in out
        # status is read-only: the damaged file is still in place.
        assert victim.exists()
        # recover --repair quarantines it aside and exits 1 (loss reported).
        assert main(["recover", "--repair", str(store_dir)]) == 1
        assert "quarantined" in capsys.readouterr().out

    def test_recover_reports_torn_tail_event(self, store_dir, point_contacts, capsys):
        import pathlib

        assert main(["ingest", "--init", str(store_dir), str(point_contacts),
                     "--seal", "10"]) == 0
        wal = pathlib.Path(store_dir) / "wal.tail"
        good = wal.read_bytes()
        wal.write_bytes(good + b"\x55torn")
        capsys.readouterr()
        # Without --repair the torn tail is reported and left in place.
        assert main(["recover", str(store_dir)]) == 0
        assert "torn" in capsys.readouterr().out
        assert wal.read_bytes() == good + b"\x55torn"
        assert main(["recover", "--repair", str(store_dir)]) == 0
        assert "torn" in capsys.readouterr().out
        assert wal.read_bytes() == good

    def test_corrupt_manifest_exits_2(self, store_dir, point_contacts, capsys):
        import pathlib

        assert main(["ingest", "--init", str(store_dir), str(point_contacts)]) == 0
        manifest = pathlib.Path(store_dir) / "MANIFEST"
        manifest.write_bytes(b"\x00" * 32)
        capsys.readouterr()
        assert main(["status", str(store_dir)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert len(err.strip().splitlines()) == 1
