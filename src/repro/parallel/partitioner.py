"""The URLPartitioner (§6.2.2, §8.1.2).

Splits the precrawled URL list into fixed-size partitions.  Each
partition becomes a numbered subdirectory (names start at 1) containing
a ``URLsToCrawl.txt`` file — the input of one ``SimpleAjaxCrawler``
process.  An in-memory variant exists for tests and the simulated
scheduler.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import PartitionError

#: The per-partition URL list file (``URI_PART_FILE_NAME``).
URLS_TO_CRAWL = "URLsToCrawl.txt"


def partition_urls(urls: list[str], partition_size: int) -> list[list[str]]:
    """Split ``urls`` into consecutive chunks of ``partition_size``."""
    if partition_size <= 0:
        raise PartitionError(f"partition size must be positive, got {partition_size}")
    return [urls[i:i + partition_size] for i in range(0, len(urls), partition_size)]


class URLPartitioner:
    """Writes partitions to disk in the thesis' directory layout."""

    def __init__(self, partition_size: int) -> None:
        if partition_size <= 0:
            raise PartitionError(f"partition size must be positive, got {partition_size}")
        self.partition_size = partition_size

    def write(self, urls: list[str], root_dir: str | Path) -> list[Path]:
        """Create ``root_dir/1/URLsToCrawl.txt``, ``root_dir/2/...`` etc.

        Returns the created partition directories in order.
        """
        root = Path(root_dir)
        root.mkdir(parents=True, exist_ok=True)
        directories: list[Path] = []
        for number, chunk in enumerate(partition_urls(urls, self.partition_size), start=1):
            partition_dir = root / str(number)
            partition_dir.mkdir(exist_ok=True)
            (partition_dir / URLS_TO_CRAWL).write_text(
                "\n".join(chunk) + "\n", encoding="utf-8"
            )
            directories.append(partition_dir)
        return directories

    @staticmethod
    def read(partition_dir: str | Path) -> list[str]:
        """Read one partition's URL list."""
        path = Path(partition_dir) / URLS_TO_CRAWL
        if not path.exists():
            raise PartitionError(f"no {URLS_TO_CRAWL} in {partition_dir}")
        return [line for line in path.read_text(encoding="utf-8").splitlines() if line]

    @staticmethod
    def list_partitions(root_dir: str | Path) -> list[Path]:
        """All partition directories under ``root_dir``, in numeric order."""
        root = Path(root_dir)
        if not root.is_dir():
            raise PartitionError(f"{root}: no such directory")
        numbered = [
            child for child in root.iterdir() if child.is_dir() and child.name.isdigit()
        ]
        return sorted(numbered, key=lambda child: int(child.name))
