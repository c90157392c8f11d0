//! Rendering and export of benchmark results (§3.4 "Export and Reporting").

use std::fmt::Write as _;

use super::BenchRecord;

/// Render records as an aligned text table with the given columns.
pub fn text_table(records: &[BenchRecord]) -> String {
    let headers =
        ["workload", "backend", "n", "gates", "wall_ms", "memory_bytes", "support", "status"];
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(records.len());
    for r in records {
        rows.push(vec![
            r.workload.clone(),
            r.backend.clone(),
            r.num_qubits.to_string(),
            r.gate_count.to_string(),
            format!("{:.3}", r.wall_ms()),
            r.memory_bytes.to_string(),
            r.support.to_string(),
            if r.ok { "ok".to_string() } else { format!("FAIL: {}", r.error) },
        ]);
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:<w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        out.push_str(&"-".repeat(widths[i]));
        out.push_str("  ");
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// Pivot: rows = register size, columns = backend, cells = wall ms
/// (`x` for failures). This is the shape of the paper's Scenario-2 charts.
pub fn pivot_time_table(records: &[BenchRecord]) -> String {
    pivot(records, |r| format!("{:.2}", r.wall_ms()))
}

/// Pivot of peak memory in bytes.
pub fn pivot_memory_table(records: &[BenchRecord]) -> String {
    pivot(records, |r| human_bytes(r.memory_bytes))
}

fn pivot(records: &[BenchRecord], cell: impl Fn(&BenchRecord) -> String) -> String {
    let mut backends: Vec<String> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    for r in records {
        if !backends.contains(&r.backend) {
            backends.push(r.backend.clone());
        }
        if !sizes.contains(&r.num_qubits) {
            sizes.push(r.num_qubits);
        }
    }
    sizes.sort_unstable();
    let mut out = String::new();
    let _ = write!(out, "{:>6}", "n");
    for b in &backends {
        let _ = write!(out, "  {b:>14}");
    }
    out.push('\n');
    for &n in &sizes {
        let _ = write!(out, "{n:>6}");
        for b in &backends {
            let v = records
                .iter()
                .find(|r| r.num_qubits == n && &r.backend == b)
                .map(|r| if r.ok { cell(r) } else { "x".to_string() })
                .unwrap_or_else(|| "-".to_string());
            let _ = write!(out, "  {v:>14}");
        }
        out.push('\n');
    }
    out
}

/// CSV export (header + one line per record).
pub fn to_csv(records: &[BenchRecord]) -> String {
    let mut out = String::from(
        "experiment,workload,backend,num_qubits,gate_count,wall_micros,memory_bytes,support,ok,error\n",
    );
    for r in records {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            csv_escape(&r.experiment),
            csv_escape(&r.workload),
            csv_escape(&r.backend),
            r.num_qubits,
            r.gate_count,
            r.wall_micros,
            r.memory_bytes,
            r.support,
            r.ok,
            csv_escape(&r.error),
        );
    }
    out
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Human-readable byte counts for report tables.
pub fn human_bytes(b: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(backend: &str, n: usize, ok: bool) -> BenchRecord {
        BenchRecord {
            experiment: "e".into(),
            workload: "ghz".into(),
            backend: backend.into(),
            num_qubits: n,
            gate_count: n,
            wall_micros: 1500,
            memory_bytes: 4096,
            support: 2,
            ok,
            error: if ok { String::new() } else { "boom, with comma".into() },
            detail: String::new(),
        }
    }

    #[test]
    fn text_table_renders_failures() {
        let t = text_table(&[rec("sql", 3, true), rec("statevector", 3, false)]);
        assert!(t.contains("FAIL"));
        assert!(t.contains("sql"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn pivot_shapes() {
        let recs = vec![rec("sql", 3, true), rec("sql", 5, true), rec("sv", 3, false)];
        let p = pivot_time_table(&recs);
        assert!(p.contains("sql"));
        assert!(p.contains('x'), "failure cell");
        assert!(p.contains('-'), "missing cell");
        let m = pivot_memory_table(&recs);
        assert!(m.contains("4.0 KiB"));
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = to_csv(&[rec("sql", 3, false)]);
        assert!(csv.contains("\"boom, with comma\""));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
        assert_eq!(human_bytes(2 * 1024 * 1024 * 1024), "2.0 GiB");
    }
}
