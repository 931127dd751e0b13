//! Table 1 — file-system benchmark overheads across back-reference
//! implementations.
//!
//! Reproduces the paper's Table 1: create/delete microbenchmarks (4 KB and
//! 64 KB files, 2048 and 8192 operations per CP) plus three application
//! workloads (dbench, FileBench /var/mail, PostMark), each run against three
//! provider configurations:
//!
//! * **Base** — no back references ([`baseline::NoBackrefs`]),
//! * **Original** — btrfs-style integrated back references
//!   ([`baseline::BtrfsLikeBackrefs`]),
//! * **Backlog** — this paper's design ([`fsim::BacklogProvider`]).
//!
//! The paper reports Backlog within 0.6–11.2 % of Base and within a few
//! percent of Original; the same relative ordering should hold here. The
//! naive conceptual-table design (Section 4.1) is included as an extra row
//! group to show why the log-structured design is needed.

use backlog::BacklogConfig;
use baseline::{BtrfsLikeBackrefs, NaiveBackrefs, NoBackrefs};
use fsim::{BacklogProvider, BackrefProvider, FileSystem, FsConfig};
use workloads::{run_app, run_create, run_delete, AppConfig, AppProfile, MicrobenchSpec};

/// Milliseconds per operation for the three microbenchmark phases.
#[derive(Debug, Default, Clone, Copy)]
struct MicroRow {
    create_4k: f64,
    create_64k: f64,
    delete_4k: f64,
}

fn micro<P: BackrefProvider>(make: impl Fn() -> P, files: u64, ops_per_cp: u64) -> MicroRow {
    // Creation and deletion of 4 KB files.
    let mut fs = FileSystem::new(make(), FsConfig::minimal());
    let spec4k = MicrobenchSpec::small_files(files, ops_per_cp);
    let (inodes, create4k) = run_create(&mut fs, spec4k).expect("create 4k failed");
    let delete4k = run_delete(&mut fs, spec4k, &inodes).expect("delete 4k failed");
    // Creation of 64 KB files.
    let mut fs = FileSystem::new(make(), FsConfig::minimal());
    let spec64k = MicrobenchSpec::large_files(files / 4, ops_per_cp);
    let (_, create64k) = run_create(&mut fs, spec64k).expect("create 64k failed");
    MicroRow {
        create_4k: create4k.millis_per_op(),
        create_64k: create64k.millis_per_op(),
        delete_4k: delete4k.millis_per_op(),
    }
}

fn apps<P: BackrefProvider>(make: impl Fn() -> P, transactions: u64) -> [f64; 3] {
    let mut out = [0.0; 3];
    for (i, profile) in [
        AppProfile::Dbench,
        AppProfile::Varmail,
        AppProfile::Postmark,
    ]
    .into_iter()
    .enumerate()
    {
        let mut fs = FileSystem::new(make(), FsConfig::minimal());
        let result =
            run_app(&mut fs, AppConfig::new(profile, transactions)).expect("app workload failed");
        out[i] = result.ops_per_sec();
    }
    out
}

fn main() {
    let files = 8_192;
    let transactions = 4_000;
    println!(
        "Table 1 reproduction: {files} files per microbenchmark, {transactions} app transactions"
    );
    println!(
        "(paper: microbenchmarks at 2048 and 8192 ops/CP on btrfs; values are ms/op and ops/s)"
    );

    for ops_per_cp in [2_048u64, 8_192] {
        let base = micro(NoBackrefs::new, files, ops_per_cp);
        let original = micro(BtrfsLikeBackrefs::new, files, ops_per_cp);
        let backlog = micro(
            || BacklogProvider::new(BacklogConfig::default()),
            files,
            ops_per_cp,
        );
        let naive = micro(NaiveBackrefs::default, files, ops_per_cp);

        let rows = vec![
            row(
                "Creation of a 4 KB file",
                base.create_4k,
                original.create_4k,
                backlog.create_4k,
                naive.create_4k,
            ),
            row(
                "Creation of a 64 KB file",
                base.create_64k,
                original.create_64k,
                backlog.create_64k,
                naive.create_64k,
            ),
            row(
                "Deletion of a 4 KB file",
                base.delete_4k,
                original.delete_4k,
                backlog.delete_4k,
                naive.delete_4k,
            ),
        ];
        print_table(
            &format!("Table 1 (microbenchmarks, {ops_per_cp} ops per CP) — ms per operation"),
            &[
                "Benchmark",
                "Base",
                "Original",
                "Backlog",
                "Naive",
                "Backlog vs Base",
            ],
            &rows,
        );
    }

    let base = apps(NoBackrefs::new, transactions);
    let original = apps(BtrfsLikeBackrefs::new, transactions);
    let backlog = apps(
        || BacklogProvider::new(BacklogConfig::default()),
        transactions,
    );
    let labels = [
        "DBench-style CIFS workload",
        "FileBench /var/mail",
        "PostMark",
    ];
    let rows: Vec<Vec<String>> = (0..3)
        .map(|i| {
            vec![
                labels[i].to_owned(),
                format!("{:.0} ops/s", base[i]),
                format!("{:.0} ops/s", original[i]),
                format!("{:.0} ops/s", backlog[i]),
                overhead_pct(base[i], backlog[i]),
            ]
        })
        .collect();
    print_table(
        "Table 1 (application workloads) — throughput",
        &[
            "Benchmark",
            "Base",
            "Original",
            "Backlog",
            "Backlog vs Base",
        ],
        &rows,
    );
    println!();
    println!("paper reference: Backlog within 0.6-11.2% of Base on microbenchmarks and 1.5-2.1% on applications,");
    println!(
        "comparable to the native btrfs (Original) implementation; the naive design is far slower."
    );
}

fn row(name: &str, base: f64, original: f64, backlog: f64, naive: f64) -> Vec<String> {
    vec![
        name.to_owned(),
        format!("{base:.4} ms"),
        format!("{original:.4} ms"),
        format!("{backlog:.4} ms"),
        format!("{naive:.4} ms"),
        overhead_pct(base, backlog),
    ]
}

/// Formats a relative overhead (`candidate` vs `base`) as a percentage
/// string, e.g. `"+7.9%"`.
fn overhead_pct(base: f64, candidate: f64) -> String {
    if base <= 0.0 {
        return "n/a".to_owned();
    }
    format!("{:+.1}%", (candidate / base - 1.0) * 100.0)
}

/// Prints a table with a header row and aligned columns.
fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!();
    println!("== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    println!("{}", padded(headers, &widths));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", padded(row, &widths));
    }
}

/// Left-aligns each cell to its column width, two spaces between columns.
fn padded<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:<w$}", c.as_ref()))
        .collect::<Vec<_>>()
        .join("  ")
}
