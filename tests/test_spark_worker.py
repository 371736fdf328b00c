"""The zip-archive stat check the Spark UDF installs in its worker
processes: an unchanged archive is not re-read on ``invalidate_caches``, a
changed or missing one is, as before. Runs in this process; no Spark."""
import importlib
import os
import sys
import zipfile
import zipimport

import pytest

from repro.runtime.spark_exec import ZIP_STAT_CHECKED, install_zip_stat_check


def _write_zip(path, modules):
    with zipfile.ZipFile(path, "w") as z:
        for name in modules:
            z.writestr(f"{name}.py", f"NAME = {name!r}\n")


@pytest.fixture
def archive(tmp_path, monkeypatch):
    """A zip holding ``zipstat_mod_a`` on ``sys.path``, imported; the class
    attribute the check replaces is restored afterwards, and every
    ``_read_directory`` call on the archive is counted in ``reads``."""
    path = str(tmp_path / "mods.zip")
    _write_zip(path, ["zipstat_mod_a"])
    monkeypatch.setattr(
        zipimport.zipimporter, "invalidate_caches", zipimport.zipimporter.invalidate_caches
    )
    monkeypatch.syspath_prepend(path)
    for name in ("zipstat_mod_a", "zipstat_mod_b"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import zipstat_mod_a

    assert zipstat_mod_a.NAME == "zipstat_mod_a"
    reads = []
    read_directory = zipimport._read_directory

    def counted(archive_path):
        if archive_path == path:
            reads.append(archive_path)
        return read_directory(archive_path)

    monkeypatch.setattr(zipimport, "_read_directory", counted)
    return path, reads


def test_unchanged_archive_is_not_reread(archive):
    _, reads = archive
    install_zip_stat_check()
    importlib.invalidate_caches()  # what the importer read before is unknown
    assert len(reads) == 1
    importlib.invalidate_caches()
    importlib.invalidate_caches()
    assert len(reads) == 1


def test_changed_archive_is_reread(archive):
    path, reads = archive
    install_zip_stat_check()
    importlib.invalidate_caches()
    _write_zip(path, ["zipstat_mod_a", "zipstat_mod_b"])
    importlib.invalidate_caches()
    assert len(reads) == 2
    import zipstat_mod_b

    assert zipstat_mod_b.NAME == "zipstat_mod_b"


def test_missing_archive_is_reread_without_raising(archive):
    path, reads = archive
    install_zip_stat_check()
    importlib.invalidate_caches()
    (importer,) = [
        v for k, v in sys.path_importer_cache.items()
        if k == path and isinstance(v, zipimport.zipimporter)
    ]
    os.remove(path)
    importlib.invalidate_caches()
    assert len(reads) == 2
    assert importer._files == {}


def test_installing_twice_wraps_once(archive):
    path, reads = archive
    install_zip_stat_check()
    patched = zipimport.zipimporter.invalidate_caches
    install_zip_stat_check()
    assert zipimport.zipimporter.invalidate_caches is patched
    assert getattr(patched, ZIP_STAT_CHECKED)
    _write_zip(path, ["zipstat_mod_a", "zipstat_mod_b"])
    importlib.invalidate_caches()
    assert len(reads) == 1
