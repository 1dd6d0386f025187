//! Tiny CSV writer (quoted where needed; no external dependency), plus a
//! streaming variant the campaign engine uses to flush rows as cells
//! complete.

use std::io::Write;
use std::path::Path;

/// Quotes a field when it contains separators, quotes or newlines.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Writes `header` and `rows` to `path`, creating parent directories.
pub fn write_csv<P: AsRef<Path>>(
    path: P,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> std::io::Result<()> {
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{}",
        header
            .iter()
            .map(|h| field(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in rows {
        writeln!(
            out,
            "{}",
            row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    out.flush()
}

/// Incremental CSV writer: rows stream to disk as they are produced (the
/// campaign engine flushes after every cell, so a killed run leaves a
/// valid, resumable file behind).
pub struct CsvWriter {
    out: std::io::BufWriter<std::fs::File>,
}

impl CsvWriter {
    /// Creates (or, with `append`, reopens) `path`. The header is written
    /// only on fresh files — appending resumes mid-table.
    pub fn open<P: AsRef<Path>>(path: P, header: &[&str], append: bool) -> std::io::Result<Self> {
        if let Some(dir) = path.as_ref().parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(&path)?;
        let fresh = file.metadata()?.len() == 0;
        let mut w = CsvWriter {
            out: std::io::BufWriter::new(file),
        };
        if fresh {
            w.write_row(header.iter().map(|h| h.to_string()))?;
        }
        Ok(w)
    }

    /// Writes one row.
    pub fn write_row(&mut self, row: impl IntoIterator<Item = String>) -> std::io::Result<()> {
        let line = row
            .into_iter()
            .map(|c| field(&c))
            .collect::<Vec<_>>()
            .join(",");
        writeln!(self.out, "{line}")
    }

    /// Flushes buffered rows to disk.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_quotes() {
        let dir = std::env::temp_dir().join("dagchkpt_csv_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b,c"],
            vec![
                vec!["1".to_string(), "plain".to_string()],
                vec!["2".to_string(), "with \"quote\", comma".to_string()],
            ],
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, "a,\"b,c\"\n1,plain\n2,\"with \"\"quote\"\", comma\"\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn appending_to_a_missing_file_writes_the_header_and_newlines_are_quoted() {
        let dir = std::env::temp_dir().join("dagchkpt_csv_append_fresh_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("c.csv");
        let mut w = CsvWriter::open(&path, &["k", "v"], true).unwrap();
        w.write_row(["a".to_string(), "two\nlines".to_string()])
            .unwrap();
        w.flush().unwrap();
        drop(w);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "k,v\na,\"two\nlines\"\n"
        );
        // Reopening without `append` truncates and starts a new table.
        let w = CsvWriter::open(&path, &["k", "v"], false).unwrap();
        drop(w);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "k,v\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn streaming_writer_matches_batch_and_appends() {
        let dir = std::env::temp_dir().join("dagchkpt_csv_stream_test");
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        write_csv(
            &a,
            &["x", "y"],
            vec![
                vec!["1".to_string(), "2".to_string()],
                vec!["3".to_string(), "4".to_string()],
            ],
        )
        .unwrap();
        let mut w = CsvWriter::open(&b, &["x", "y"], false).unwrap();
        w.write_row(["1".to_string(), "2".to_string()]).unwrap();
        w.flush().unwrap();
        drop(w);
        // Appending does not repeat the header.
        let mut w = CsvWriter::open(&b, &["x", "y"], true).unwrap();
        w.write_row(["3".to_string(), "4".to_string()]).unwrap();
        w.flush().unwrap();
        drop(w);
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap()
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
