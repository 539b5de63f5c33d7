"""Filesharing workload generator (stands in for the Gnutella trace).

The Figure 1 experiment in the paper replays real Gnutella queries over a
50-node PlanetLab deployment and reports first-result latency CDFs, with a
focus on *rare* keywords — those matched by few files and therefore hard
for flooding search to find.  This generator reproduces the relevant
statistics synthetically:

* keyword popularity follows a Zipf distribution (a few keywords describe
  many files, most keywords describe very few);
* each file carries several keywords and is *hosted* by one or more nodes
  (popular files are widely replicated, rare files live on a single node);
* the query workload mixes popular and rare keywords, and the rare subset
  can be selected exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.qp.tuples import Tuple
from repro.runtime.rand import derive_rng


@dataclass(frozen=True)
class FileDescriptor:
    """One shared file: identifier, name, keywords, and hosting nodes."""

    file_id: int
    filename: str
    keywords: Sequence[str]
    hosts: Sequence[int]
    size_kb: int


@dataclass
class FilesharingWorkload:
    """Synthetic corpus plus query workload over ``node_count`` nodes."""

    node_count: int
    file_count: int = 400
    keyword_count: int = 120
    keywords_per_file: int = 3
    zipf_exponent: float = 1.1
    max_replication: int = 8
    seed: int = 0
    files: List[FileDescriptor] = field(default_factory=list, init=False)
    keyword_popularity: Dict[str, int] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.node_count <= 0 or self.file_count <= 0 or self.keyword_count <= 0:
            raise ValueError("node_count, file_count, keyword_count must be positive")
        self._rng = derive_rng(self.seed)
        self._keywords = [f"kw{i:04d}" for i in range(self.keyword_count)]
        self._weights = [1.0 / ((rank + 1) ** self.zipf_exponent) for rank in range(self.keyword_count)]
        self._generate_files()

    # -- corpus -------------------------------------------------------------- #
    def _generate_files(self) -> None:
        self.files = []
        self.keyword_popularity = {keyword: 0 for keyword in self._keywords}
        for file_id in range(self.file_count):
            keywords = self._sample_keywords(self.keywords_per_file)
            # Replication tracks how obscure the file is: a file described by
            # any rare keyword is itself rarely shared (its rarest keyword's
            # rank drives the replica count), while files with only popular
            # keywords are widely replicated.
            worst_rank = max(self._keywords.index(keyword) for keyword in keywords)
            replication = max(
                1, round(self.max_replication * (1.0 / (1.0 + worst_rank / 10.0)))
            )
            hosts = self._rng.sample(range(self.node_count), k=min(replication, self.node_count))
            descriptor = FileDescriptor(
                file_id=file_id,
                filename=f"{keywords[0]}_{file_id}.mp3",
                keywords=tuple(keywords),
                hosts=tuple(hosts),
                size_kb=self._rng.randint(500, 8000),
            )
            self.files.append(descriptor)
            for keyword in keywords:
                self.keyword_popularity[keyword] += 1

    def _sample_keywords(self, count: int) -> List[str]:
        chosen: List[str] = []
        while len(chosen) < count:
            keyword = self._rng.choices(self._keywords, weights=self._weights, k=1)[0]
            if keyword not in chosen:
                chosen.append(keyword)
        return chosen

    # -- derived views --------------------------------------------------------- #
    def inverted_index_tuples(self) -> List[Tuple]:
        """(keyword, file_id, filename, host) tuples: PIER's published index."""
        rows: List[Tuple] = []
        for descriptor in self.files:
            for keyword in descriptor.keywords:
                for host in descriptor.hosts:
                    rows.append(
                        Tuple.make(
                            "inverted",
                            keyword=keyword,
                            file_id=descriptor.file_id,
                            filename=descriptor.filename,
                            host=host,
                            size_kb=descriptor.size_kb,
                        )
                    )
        return rows

    def replicas_by_node(self) -> List[List[FileDescriptor]]:
        """Which files each node hosts (the Gnutella baseline's local state)."""
        holdings: List[List[FileDescriptor]] = [[] for _ in range(self.node_count)]
        for descriptor in self.files:
            for host in descriptor.hosts:
                holdings[host].append(descriptor)
        return holdings

    def keywords_sorted_by_popularity(self) -> List[str]:
        return sorted(
            self.keyword_popularity, key=lambda keyword: -self.keyword_popularity[keyword]
        )

    def rare_keywords(self, max_files: int = 2) -> List[str]:
        """Keywords matched by at most ``max_files`` files (the rare subset)."""
        return [
            keyword
            for keyword, count in self.keyword_popularity.items()
            if 0 < count <= max_files
        ]

    def popular_keywords(self, min_files: int = 10) -> List[str]:
        return [
            keyword
            for keyword, count in self.keyword_popularity.items()
            if count >= min_files
        ]

    def query_workload(self, query_count: int, rare_fraction: float = 0.3) -> List[str]:
        """A stream of keyword queries mixing popular and rare keywords."""
        rare = self.rare_keywords() or list(self._keywords[-5:])
        queries: List[str] = []
        for _ in range(query_count):
            if self._rng.random() < rare_fraction:
                queries.append(self._rng.choice(rare))
            else:
                queries.append(
                    self._rng.choices(self._keywords, weights=self._weights, k=1)[0]
                )
        return queries

    def files_matching(self, keyword: str) -> List[FileDescriptor]:
        return [descriptor for descriptor in self.files if keyword in descriptor.keywords]
