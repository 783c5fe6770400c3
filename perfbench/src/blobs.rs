//! A timed pass-through [`BlobStore`]: forwards every call unchanged and
//! counts gets and puts, their bytes and their wall time. Traced runs put
//! it between the store and the in-memory DFS to measure the blob layer
//! from outside the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spcube_common::Result;
use spcube_cubestore::BlobStore;

/// Counters of a [`TimedBlobs`] at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlobCounts {
    pub gets: u64,
    pub get_bytes: u64,
    pub get_s: f64,
    pub puts: u64,
    pub put_bytes: u64,
    pub put_s: f64,
}

impl BlobCounts {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &BlobCounts) -> BlobCounts {
        BlobCounts {
            gets: self.gets - earlier.gets,
            get_bytes: self.get_bytes - earlier.get_bytes,
            get_s: self.get_s - earlier.get_s,
            puts: self.puts - earlier.puts,
            put_bytes: self.put_bytes - earlier.put_bytes,
            put_s: self.put_s - earlier.put_s,
        }
    }
}

/// Pass-through wrapper timing every get and put of `inner`.
pub struct TimedBlobs {
    inner: Arc<dyn BlobStore>,
    gets: AtomicU64,
    get_bytes: AtomicU64,
    get_ns: AtomicU64,
    puts: AtomicU64,
    put_bytes: AtomicU64,
    put_ns: AtomicU64,
}

impl TimedBlobs {
    pub fn new(inner: Arc<dyn BlobStore>) -> TimedBlobs {
        TimedBlobs {
            inner,
            gets: AtomicU64::new(0),
            get_bytes: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            put_ns: AtomicU64::new(0),
        }
    }

    /// Snapshot of the counters. They are statistics only, so relaxed
    /// loads suffice.
    pub fn counts(&self) -> BlobCounts {
        BlobCounts {
            gets: self.gets.load(Ordering::Relaxed),
            get_bytes: self.get_bytes.load(Ordering::Relaxed),
            get_s: self.get_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            puts: self.puts.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
            put_s: self.put_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl BlobStore for TimedBlobs {
    fn put(&self, path: &str, data: Vec<u8>) -> Result<()> {
        let len = data.len() as u64;
        let t0 = Instant::now();
        let result = self.inner.put(path, data);
        self.put_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.put_bytes.fetch_add(len, Ordering::Relaxed);
        result
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        let t0 = Instant::now();
        let result = self.inner.get(path);
        self.get_ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.gets.fetch_add(1, Ordering::Relaxed);
        if let Ok(bytes) = &result {
            self.get_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        result
    }

    fn list(&self, prefix: &str) -> Result<Vec<(String, u64)>> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{fingerprint, queries, zipf_relation, D};
    use spcube_agg::AggSpec;
    use spcube_cubealg::naive_cube;
    use spcube_cubestore::{answer, write_store, CubeStore};
    use spcube_mapreduce::Dfs;

    fn blob_image(blobs: &dyn BlobStore) -> Vec<(String, Vec<u8>)> {
        blobs
            .list("s")
            .expect("list")
            .into_iter()
            .map(|(p, _)| {
                let bytes = blobs.get(&p).expect("get");
                (p, bytes)
            })
            .collect()
    }

    #[test]
    fn writes_through_the_wrapper_are_byte_identical() {
        let rel = zipf_relation(2_000, 3);
        let cube = naive_cube(&rel, AggSpec::Sum);
        let direct = Dfs::new();
        write_store(&direct, "s", &cube, D, AggSpec::Sum, 1).expect("direct write");
        let timed = TimedBlobs::new(Arc::new(Dfs::new()));
        let report = write_store(&timed, "s", &cube, D, AggSpec::Sum, 1).expect("timed write");
        assert_eq!(blob_image(&direct), blob_image(&timed));
        let counts = timed.counts();
        assert_eq!(counts.puts as usize, report.segments + 2);
        assert_eq!(counts.put_bytes, report.bytes);
    }

    #[test]
    fn a_store_opened_through_the_wrapper_answers_identically() {
        let rel = zipf_relation(2_000, 5);
        let cube = naive_cube(&rel, AggSpec::Sum);
        let dfs = Arc::new(Dfs::new());
        write_store(dfs.as_ref(), "s", &cube, D, AggSpec::Sum, 1).expect("write");
        let plain = CubeStore::open(Arc::clone(&dfs) as Arc<dyn BlobStore>, "s").expect("open");
        let timed = Arc::new(TimedBlobs::new(dfs));
        let wrapped =
            CubeStore::open(Arc::clone(&timed) as Arc<dyn BlobStore>, "s").expect("open timed");
        for req in queries(&rel, 1, 7) {
            let a = answer(&plain, &req);
            let b = answer(&wrapped, &req);
            assert_eq!(a, b, "{req:?}");
            assert_eq!(fingerprint(&a), fingerprint(&b));
        }
        let counts = timed.counts();
        assert!(counts.gets > 0 && counts.get_bytes > 0);
        assert_eq!(counts.puts, 0);
    }
}
