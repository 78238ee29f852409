//! Dataset IO: a simple `x,y` CSV format (matching the layout of the
//! paper's published dataset archive) and a compact binary format for
//! fast reload of multi-million-point datasets.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use vbp_geom::Point2;

/// Magic header of the binary format.
const MAGIC: &[u8; 8] = b"VBPPTS01";

/// Writes points as `x,y` CSV lines.
pub fn write_csv<W: Write>(writer: W, points: &[Point2]) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for p in points {
        writeln!(w, "{},{}", p.x, p.y)?;
    }
    w.flush()
}

/// Reads `x,y` CSV lines. Blank lines and `#` comments are skipped.
pub fn read_csv<R: Read>(reader: R) -> io::Result<Vec<Point2>> {
    let r = BufReader::new(reader);
    let mut points = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split(',');
        let parse = |s: Option<&str>| -> io::Result<f64> {
            s.map(str::trim)
                .ok_or_else(|| bad_line(lineno, trimmed))?
                .parse::<f64>()
                .map_err(|_| bad_line(lineno, trimmed))
        };
        let x = parse(parts.next())?;
        let y = parse(parts.next())?;
        if parts.next().is_some() {
            return Err(bad_line(lineno, trimmed));
        }
        points.push(Point2::new(x, y));
    }
    Ok(points)
}

fn bad_line(lineno: usize, line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {}: malformed point '{line}'", lineno + 1),
    )
}

/// Writes points in the binary format: magic, little-endian `u64` count,
/// then `x, y` pairs as little-endian `f64`.
pub fn write_binary<W: Write>(writer: W, points: &[Point2]) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&(points.len() as u64).to_le_bytes())?;
    for p in points {
        w.write_all(&p.x.to_le_bytes())?;
        w.write_all(&p.y.to_le_bytes())?;
    }
    w.flush()
}

/// Reads the binary format written by [`write_binary`].
pub fn read_binary<R: Read>(reader: R) -> io::Result<Vec<Point2>> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a VBP point file (bad magic)",
        ));
    }
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)?;
    let count = u64::from_le_bytes(count_bytes) as usize;
    let mut points = Vec::with_capacity(count.min(1 << 24));
    let mut buf = [0u8; 16];
    for _ in 0..count {
        r.read_exact(&mut buf)?;
        let x = f64::from_le_bytes(buf[..8].try_into().unwrap());
        let y = f64::from_le_bytes(buf[8..].try_into().unwrap());
        points.push(Point2::new(x, y));
    }
    Ok(points)
}

/// Saves to a path, choosing format by extension: `.csv` → CSV, anything
/// else → binary.
pub fn save<P: AsRef<Path>>(path: P, points: &[Point2]) -> io::Result<()> {
    let path = path.as_ref();
    let file = File::create(path)?;
    if path.extension().is_some_and(|e| e == "csv") {
        write_csv(file, points)
    } else {
        write_binary(file, points)
    }
}

/// Loads from a path, choosing format by extension as [`save`] does.
pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Vec<Point2>> {
    let path = path.as_ref();
    let file = File::open(path)?;
    if path.extension().is_some_and(|e| e == "csv") {
        read_csv(file)
    } else {
        read_binary(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Point2> {
        vec![
            Point2::new(1.5, -2.25),
            Point2::new(0.0, 0.0),
            Point2::new(-130.125, 54.5),
        ]
    }

    #[test]
    fn csv_roundtrip() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &sample()).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn csv_skips_comments_and_blanks() {
        let text = "# header\n1,2\n\n  3 , 4 \n";
        let pts = read_csv(text.as_bytes()).unwrap();
        assert_eq!(pts, vec![Point2::new(1.0, 2.0), Point2::new(3.0, 4.0)]);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(read_csv("1,2\nfoo,bar\n".as_bytes()).is_err());
        assert!(read_csv("1\n".as_bytes()).is_err());
        assert!(read_csv("1,2,3\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTMAGIC\0\0\0\0\0\0\0\0".to_vec();
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn save_and_load_by_extension() {
        let dir = std::env::temp_dir();
        let csv = dir.join("vbp_io_test.csv");
        let bin = dir.join("vbp_io_test.pts");
        save(&csv, &sample()).unwrap();
        save(&bin, &sample()).unwrap();
        assert_eq!(load(&csv).unwrap(), sample());
        assert_eq!(load(&bin).unwrap(), sample());
        let _ = std::fs::remove_file(csv);
        let _ = std::fs::remove_file(bin);
    }

    #[test]
    fn empty_roundtrips() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &[]).unwrap();
        assert!(read_binary(buf.as_slice()).unwrap().is_empty());
        let mut buf = Vec::new();
        write_csv(&mut buf, &[]).unwrap();
        assert!(read_csv(buf.as_slice()).unwrap().is_empty());
    }
}
