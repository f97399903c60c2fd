//! Flight recorder: post-mortem state dumps for rare, catastrophic
//! events.
//!
//! Metrics and the event ring answer "what is happening now"; the flight
//! recorder answers "what happened in the seconds before it went wrong".
//! When the cluster observes a **digest divergence**, a **coordinator
//! failover**, or a **failed rejoin** (`rejoin_failed`), it dumps the
//! full observability state of every member — event ring, recent spans,
//! order-layer counters, kernel digests — to one timestamped file so the
//! evidence survives process exit and can be diffed across members.
//!
//! Dumps are written atomically (`.tmp` + rename) so a scraper watching
//! the directory never reads a half-written file.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One named section of a flight dump (e.g. one member's event ring).
pub struct FlightSection {
    /// Section heading, e.g. `"events host=1"`.
    pub title: String,
    /// Section body, already rendered (JSON lines, Prometheus text, ...).
    pub body: String,
}

impl FlightSection {
    /// Convenience constructor.
    pub fn new(title: impl Into<String>, body: impl Into<String>) -> FlightSection {
        FlightSection {
            title: title.into(),
            body: body.into(),
        }
    }
}

/// Writes flight dumps into a configured directory. Cheap to clone the
/// handle around via `Arc`; dump writes are serialized by a mutex so
/// concurrent triggers (every member sees the same divergence) produce
/// distinct, complete files.
pub struct FlightRecorder {
    dir: PathBuf,
    seq: AtomicU64,
    write_lock: Mutex<()>,
}

impl FlightRecorder {
    /// Create a recorder that writes into `dir`, creating it if needed.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<FlightRecorder> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FlightRecorder {
            dir,
            seq: AtomicU64::new(0),
            write_lock: Mutex::new(()),
        })
    }

    /// The directory dumps land in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically write one dump triggered by `reason` (e.g.
    /// `"digest_divergence"`). Returns the path of the finished file.
    ///
    /// The filename embeds a wall-clock microsecond timestamp and a
    /// process-local sequence number, so repeated triggers never collide.
    pub fn dump(&self, reason: &str, sections: &[FlightSection]) -> std::io::Result<PathBuf> {
        let _guard = self.write_lock.lock().unwrap();
        let at = linda_obs::now_micros();
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let name = format!("flight-{at}-{n}-{reason}.txt");
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let fin = self.dir.join(&name);
        {
            let mut f = std::fs::File::create(&tmp)?;
            writeln!(f, "# flight recorder dump")?;
            writeln!(f, "# reason: {reason}")?;
            writeln!(f, "# at_micros: {at}")?;
            for s in sections {
                writeln!(f, "\n== {} ==", s.title)?;
                f.write_all(s.body.as_bytes())?;
                if !s.body.ends_with('\n') {
                    writeln!(f)?;
                }
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &fin)?;
        Ok(fin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_writes_atomic_timestamped_file() {
        let dir = std::env::temp_dir().join(format!(
            "ftlinda-flight-test-{}-{}",
            std::process::id(),
            linda_obs::now_micros()
        ));
        let rec = FlightRecorder::new(&dir).unwrap();
        let p = rec
            .dump(
                "digest_divergence",
                &[
                    FlightSection::new("events host=0", "{\"kind\":\"x\"}\n"),
                    FlightSection::new("digest host=0", "abc123"),
                ],
            )
            .unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.contains("# reason: digest_divergence"));
        assert!(text.contains("== events host=0 =="));
        assert!(text.contains("== digest host=0 =="));
        assert!(text.contains("abc123"));
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());

        // A second dump gets a distinct name even at the same microsecond.
        let p2 = rec.dump("digest_divergence", &[]).unwrap();
        assert_ne!(p, p2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
