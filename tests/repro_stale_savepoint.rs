// Reproduction (ROADMAP item 1): while A's frame is open, B opens a frame
// on the log's tail and aborts it, and A then logs more ops and rolls
// back to a savepoint it set while B's bytes were on the tail. When
// rollbacks were file truncations to recorded offsets, A's rollback cut
// the file mid-record and later committed frames were lost at recovery.
// Rollbacks are logical records now, so the file only grows here.
use qymera_sqldb::exec::batch::{Column, RowBatch};
use qymera_sqldb::storage::fault::FaultInjector;
use qymera_sqldb::storage::wal::{DurableStore, FsyncPolicy};

/// The one-column batch an `INSERT INTO t VALUES (k), …` logs.
fn ints(values: &[i64]) -> RowBatch {
    RowBatch::from_columns(vec![Column::Int(values.to_vec())])
}

#[test]
fn stale_savepoint_after_foreign_abort_truncation() {
    let dir = std::env::temp_dir().join(format!("qymera-repro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut store, _) =
            DurableStore::open(&dir, FsyncPolicy::Commit, FaultInjector::none()).unwrap();

        // Txn A opens its frame and logs one op.
        let a = store.begin().unwrap();
        store.log_insert(a, "t", &ints(&[1])).unwrap();

        // Txn C commits, advancing the committed boundary past A's bytes.
        let c = store.begin().unwrap();
        store.log_insert(c, "t", &ints(&[100])).unwrap();
        store.commit(c).unwrap();

        // Txn B is now alone on the uncommitted tail.
        let b = store.begin().unwrap();
        store.log_insert(b, "t", &ints(&[200, 201])).unwrap();

        // A sets a savepoint here (an op count — `Database::txn_savepoint`
        // records nothing about the file), then B aborts.
        store.abort(b);

        // A logs ten ops past the savepoint and rolls them back.
        for i in 0..10 {
            store.log_insert(a, "t", &ints(&[i])).unwrap();
        }
        store.rollback_ops(a, 10).unwrap();

        // A continues and commits; then an unrelated txn D commits too.
        store.log_insert(a, "t", &ints(&[42])).unwrap();
        store.commit(a).unwrap();
        let d = store.begin().unwrap();
        store.log_insert(d, "t", &ints(&[7])).unwrap();
        store.commit(d).unwrap();
    }
    // Recovery: C's, A's and D's acknowledged commits must all replay.
    let (_, rec) =
        DurableStore::open(&dir, FsyncPolicy::Commit, FaultInjector::none()).unwrap();
    let committed: Vec<u64> = rec.frames.iter().map(|f| f.txn).collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        committed.len() >= 3,
        "acknowledged commits lost at recovery: only frames {committed:?} replayed"
    );
}
