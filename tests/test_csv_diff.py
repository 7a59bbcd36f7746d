import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "csv_diff.py")


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def csv_diff(old, new):
    proc = subprocess.run([sys.executable, SCRIPT, str(old), str(new)],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout.splitlines()


class TestCsvDiff:
    def test_identical_directories(self, tmp_path):
        for side in ("old", "new"):
            write(tmp_path / side / "report.csv", "a,b\n1.0,2.0\n")
            write(tmp_path / side / "m=1" / "events.csv", "agent,time\n1,0.0\n")
        code, lines = csv_diff(tmp_path / "old", tmp_path / "new")
        assert code == 0
        assert lines == ["m=1/events.csv: identical", "report.csv: identical"]

    def test_columns_rows_and_files(self, tmp_path):
        write(tmp_path / "old" / "trajectory.csv",
              "t,eta_g1,status\n0.0,1.0,ok\n0.001,0.5,ok\n0.002,0.25,ok\n")
        write(tmp_path / "new" / "trajectory.csv",
              "t,eta_g1,status,extra\n0.0,1.0,ok,1\n0.001,0.5000000000003,bad,1\n"
              "0.002,0.2499999999999,ok,1\n")
        write(tmp_path / "new" / "sweep.csv", "name\nx\n")
        code, lines = csv_diff(tmp_path / "old", tmp_path / "new")
        assert code == 1
        assert lines[0] == "sweep.csv: only in NEW"
        assert lines[1] == "trajectory.csv: differs (3 rows)"
        assert lines[2] == "  t: identical"
        assert lines[3].startswith("  eta_g1: max |delta| 3e-13 in 2 rows")
        assert lines[4] == "  status: max |delta| 0 in 1 rows (1 non-numeric)"
        assert lines[5] == "  extra only in NEW"

    def test_missing_or_file_roots_exit_2(self, tmp_path):
        write(tmp_path / "old" / "report.csv", "a\n1\n")
        write(tmp_path / "file.csv", "a\n1\n")
        for old, new in ((tmp_path / "absent_a", tmp_path / "absent_b"),
                         (tmp_path / "old", tmp_path / "absent_b"),
                         (tmp_path / "file.csv", tmp_path / "old")):
            proc = subprocess.run([sys.executable, SCRIPT, str(old), str(new)],
                                  capture_output=True, text=True, check=False)
            bad = [root for root in (old, new) if not root.is_dir()]
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.splitlines() == [f"error: {root} is not a directory"
                                                for root in bad]
