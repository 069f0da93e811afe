import pyarrow as pa
import pytest

from geoflow.pipelines.flagship import run_flagship, run_flagship_checkpointed
from geoflow.sources.pages import pages_dataset
from geoflow.state.ingest import incremental_ingest


def _tampered_pages(n=50):
    def _tamper(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        texts[0] = (texts[0] or "") + " TAMPERED"
        i = b.column_names.index("text")
        return b.set_column(i, "text", pa.array(texts, pa.string()))

    return pages_dataset(n, override_num_blocks=1).map_batches(
        _tamper, batch_format="pyarrow")


def _run_flagship(tmp_path):
    run_flagship(_tampered_pages()).materialize()


def _run_flagship_checkpointed(tmp_path):
    pages_dir = str(tmp_path / "pages")
    _tampered_pages().write_parquet(pages_dir)
    run_flagship_checkpointed(pages_dir, str(tmp_path / "work"), shards=1)


def _incremental_ingest(tmp_path):
    incremental_ingest(_tampered_pages(), str(tmp_path / "ingest"),
                       "a").materialize()


@pytest.mark.parametrize("entry", [_run_flagship, _run_flagship_checkpointed,
                                   _incremental_ingest],
                         ids=["run_flagship", "run_flagship_checkpointed",
                              "incremental_ingest"])
def test_strict_mode_fails_on_tampered_text(ray_session, tmp_path, entry):
    """Every entry point that ingests stored text enforces byte-identity
    of the extraction against it."""
    with pytest.raises(Exception, match="byte-identity"):
        entry(tmp_path)


def test_strict_mode_passes_on_clean_input(ray_session):
    out = run_flagship(pages_dataset(200, override_num_blocks=2)).to_pandas()
    assert len(out) > 0
