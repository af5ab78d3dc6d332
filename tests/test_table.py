from pathlib import Path

import numpy as np
import pytest

from rtt.errors import TableFormatError
from rtt.table import (
    TestTable,
    dumps_table,
    loads_table,
    read_table,
    table_checksum,
    write_table,
)


def random_table(rng: np.random.Generator) -> TestTable:
    k = int(rng.integers(2, 10))
    n_s = int(rng.integers(1, 12))
    n_f = int(rng.integers(1, 12))
    def tail():
        return (rng.normal(), float(np.exp(rng.normal())), rng.uniform(-0.5, 0.499))
    singles = tuple(
        (float(np.exp(rng.normal())),) + tail() for _ in range(n_s)
    )
    fulls = tuple(
        (float(np.exp(rng.normal())),) + tail() + tail() for _ in range(n_f)
    )
    return TestTable(
        k=k,
        n0=int(rng.integers(2 * k + 2, 80)),
        alpha=float(rng.uniform(0.001, 0.5)),
        rho1=float(np.exp(rng.normal())),
        rho_r=float(np.exp(rng.normal())),
        single_atoms=singles,
        full_atoms=fulls,
        xi_grid=tuple(np.linspace(-0.5, 0.5, int(rng.integers(1, 25)))),
        build_metadata=(("seed", str(rng.integers(10 ** 6))), ("n_draws", "1000")),
    )


class TestRoundTrip:
    def test_hundred_random_tables(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            t = random_table(rng)
            back = loads_table(dumps_table(t))
            assert back == t
            assert table_checksum(back) == table_checksum(t)

    def test_file_destination(self, tmp_path):
        t = random_table(np.random.default_rng(1))
        path = tmp_path / "t.rtt"
        write_table(t, path)
        assert read_table(path) == t


class TestChecksum:
    def test_identical_tables_share_digest(self):
        a = random_table(np.random.default_rng(7))
        b = random_table(np.random.default_rng(7))
        assert table_checksum(a) == table_checksum(b)

    def test_one_ulp_perturbation_changes_digest(self):
        t = random_table(np.random.default_rng(8))
        lam = t.single_atoms[0][0]
        bumped = (float(np.nextafter(lam, np.inf)),) + t.single_atoms[0][1:]
        t2 = TestTable(
            k=t.k, n0=t.n0, alpha=t.alpha, rho1=t.rho1, rho_r=t.rho_r,
            single_atoms=(bumped,) + t.single_atoms[1:],
            full_atoms=t.full_atoms, xi_grid=t.xi_grid, build_metadata=t.build_metadata,
        )
        assert table_checksum(t2) != table_checksum(t)

    def test_shipped_desk_table(self):
        path = Path(__file__).resolve().parents[1] / "tables" / "desk_k4_a05.rtt"
        t = read_table(path)
        assert (t.k, t.n0, t.alpha) == (4, 50, 0.05)
        assert table_checksum(t).startswith("1192558f")

    def test_digest_ignores_atom_order(self):
        t = random_table(np.random.default_rng(9))
        shuffled = TestTable(
            k=t.k, n0=t.n0, alpha=t.alpha, rho1=t.rho1, rho_r=t.rho_r,
            single_atoms=t.single_atoms[::-1], full_atoms=t.full_atoms[::-1],
            xi_grid=t.xi_grid, build_metadata=t.build_metadata,
        )
        assert table_checksum(shuffled) == table_checksum(t)
        # a table keeps its atoms in the file's order from construction on
        assert shuffled == t and shuffled.single_atoms == t.single_atoms


class TestHash:
    def test_equal_tables_hash_equal(self):
        a = random_table(np.random.default_rng(7))
        b = random_table(np.random.default_rng(7))
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(a)
        assert len({a, b}) == 1

    def test_hash_follows_fields(self):
        t = random_table(np.random.default_rng(8))
        other = TestTable(
            k=t.k, n0=t.n0, alpha=t.alpha / 2, rho1=t.rho1, rho_r=t.rho_r,
            single_atoms=t.single_atoms, full_atoms=t.full_atoms,
            xi_grid=t.xi_grid, build_metadata=t.build_metadata,
        )
        assert hash(loads_table(dumps_table(t))) == hash(t)
        assert other != t and hash(other) != hash(t)


class TestErrors:
    def test_truncated_file(self):
        text = dumps_table(random_table(np.random.default_rng(3)))
        clipped = "\n".join(text.splitlines()[:-2])
        with pytest.raises(TableFormatError, match="CHECKSUM"):
            loads_table(clipped)

    def test_unknown_version(self):
        text = dumps_table(random_table(np.random.default_rng(4)))
        with pytest.raises(TableFormatError, match="version"):
            loads_table(text.replace("RTT1", "RTT9", 1))

    def test_tampered_value(self):
        t = random_table(np.random.default_rng(5))
        lines = dumps_table(t).splitlines()
        for i, line in enumerate(lines):
            if line.startswith("S "):
                parts = line.split()
                parts[1] = "2.5"
                lines[i] = " ".join(parts)
                break
        with pytest.raises(TableFormatError, match="digest"):
            loads_table("\n".join(lines))

    def test_malformed_field_names_line(self):
        t = random_table(np.random.default_rng(6))
        lines = dumps_table(t).splitlines()
        lines[1] = "SWITCH abc 0.1"
        with pytest.raises(TableFormatError, match="line 2"):
            loads_table("\n".join(lines))

    def test_invariant_violation_on_read(self):
        with pytest.raises(TableFormatError, match="alpha"):
            TestTable(
                k=4, n0=50, alpha=1.5, rho1=0.1, rho_r=0.1,
                single_atoms=((1.0, 0.0, 1.0, 0.0),),
                full_atoms=((1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0),),
                xi_grid=(0.0,),
            )

    def test_non_finite_atom_or_shape_rejected(self):
        # a NaN weight passes the positivity checks (nan <= 0 is false) and
        # would make every denominator NaN, so condition 2 would never hold
        lines = dumps_table(random_table(np.random.default_rng(11))).splitlines()
        first_s = next(i for i, line in enumerate(lines) if line.startswith("S "))
        lines[first_s] = "S nan 0.1 inf 0.2"
        with pytest.raises(TableFormatError, match="field S: .*finite"):
            loads_table("\n".join(lines))
        base = dict(
            k=4, n0=50, alpha=0.05, rho1=0.1, rho_r=0.1,
            single_atoms=((1.0, 0.0, 1.0, 0.0),),
            full_atoms=((1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0),),
            xi_grid=(0.0,),
        )
        TestTable(**base)
        TestTable(**{**base, "single_atoms": ((1e308, 1e308, 1.0, 0.0),)})  # finite, sum overflows
        bad = (
            ("S", dict(single_atoms=((1.0, float("-inf"), 1.0, 0.0),))),
            ("F", dict(full_atoms=((1.0, 0.0, 1.0, 0.0, 0.0, 1.0, float("nan")),))),
            ("F", dict(full_atoms=((float("inf"), 0.0, 1.0, 0.0, 0.0, 1.0, 0.0),))),
            ("xi_grid", dict(xi_grid=(0.0, float("nan")))),
        )
        for field, change in bad:
            with pytest.raises(TableFormatError, match=f"field {field}: .*finite"):
                TestTable(**{**base, **change})

    def test_unknown_record_type(self):
        t = random_table(np.random.default_rng(10))
        lines = dumps_table(t).splitlines()
        lines.insert(2, "BOGUS 1 2 3")
        with pytest.raises(TableFormatError, match="unknown record"):
            loads_table("\n".join(lines))
