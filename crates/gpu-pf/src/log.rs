//! Appendix-G-style log output: refresh reports, pipeline iterations, and
//! per-operation timing lines.
//!
//! Every line is prefixed with `[gpu-pf] `, terminated with `\n` and
//! flushed, on the one writer [`crate::Pipeline::set_logger`] attaches.

use parking_lot::Mutex;
use std::io::Write;

/// A line-oriented logger; disabled by default (zero cost).
pub struct Logger {
    sink: Option<Mutex<Box<dyn Write + Send>>>,
}

impl Logger {
    /// No sink, no allocations: `line_with` closures are never invoked.
    pub fn disabled() -> Logger {
        Logger { sink: None }
    }

    /// Route lines to a writer.
    pub fn new(w: Box<dyn Write + Send>) -> Logger {
        Logger {
            sink: Some(Mutex::new(w)),
        }
    }

    /// Lazily-formatted line: the closure only runs when a sink is
    /// attached, so a disabled logger costs one branch and nothing else.
    pub fn line_with(&self, f: impl FnOnce() -> String) {
        if let Some(sink) = &self.sink {
            let line = format!("[gpu-pf] {}", f());
            let mut w = sink.lock();
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_logger_is_silent() {
        let l = Logger::disabled();
        assert!(l.sink.is_none());
        l.line_with(|| "nothing happens".to_string());
    }

    #[test]
    fn disabled_logger_never_runs_format_closures() {
        let l = Logger::disabled();
        l.line_with(|| panic!("closure must not run on a disabled logger"));
    }

    #[test]
    fn enabled_logger_writes_lines() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct W(Arc<Mutex<Vec<u8>>>);
        impl Write for W {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let l = Logger::new(Box::new(W(buf.clone())));
        l.line_with(|| "hello".to_string());
        l.line_with(|| "lazy".to_string());
        assert_eq!(
            String::from_utf8(buf.lock().clone()).unwrap(),
            "[gpu-pf] hello\n[gpu-pf] lazy\n"
        );
    }
}
