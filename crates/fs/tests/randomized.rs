//! Randomized tests of the filesystem's core invariants, driven by the
//! in-tree deterministic [`SpecRng`] (formerly proptest-based).

use veros_fs::journal::{FsOp, JournaledFs};
use veros_fs::memfs::MAX_FILE;
use veros_fs::spec::view_flat;
use veros_fs::{FsError, MemFs, Path};
use veros_hw::SimDisk;
use veros_spec::rng::SpecRng;

fn arbitrary_name(rng: &mut SpecRng) -> String {
    let letters = ['a', 'b', 'c', 'd'];
    (0..1 + rng.index(3)).map(|_| *rng.choose(&letters)).collect()
}

fn arbitrary_path(rng: &mut SpecRng) -> String {
    let a = arbitrary_name(rng);
    if rng.chance(1, 2) {
        let b = arbitrary_name(rng);
        format!("/{a}/{b}")
    } else {
        format!("/{a}")
    }
}

fn arbitrary_op(rng: &mut SpecRng) -> FsOp {
    let p = arbitrary_path(rng);
    match rng.below(6) {
        0 => FsOp::Create(p),
        1 => FsOp::Mkdir(p),
        2 => FsOp::Unlink(p),
        3 => FsOp::Rmdir(p),
        4 => {
            let mut data = vec![0u8; rng.index(32)];
            rng.fill(&mut data);
            FsOp::WriteAt(p, rng.below(256), data)
        }
        _ => FsOp::Truncate(p, rng.below(512)),
    }
}

/// The flat view is always consistent with the inode tree after any
/// operation sequence, and replaying the successful ops into a fresh
/// filesystem reproduces the same state (determinism — the property
/// journal recovery rests on).
#[test]
fn view_and_replay_consistent() {
    let mut rng = SpecRng::for_obligation("fs::tests::view_and_replay_consistent");
    for _ in 0..64 {
        let mut fs = MemFs::new();
        let mut accepted = Vec::new();
        for _ in 0..rng.index(40) {
            let op = arbitrary_op(&mut rng);
            if op.apply(&mut fs).is_ok() {
                accepted.push(op);
            }
        }
        // Replay determinism.
        let mut replay = MemFs::new();
        for op in &accepted {
            op.apply(&mut replay).expect("accepted ops replay");
        }
        assert_eq!(&fs, &replay);
        // View sanity: every file in the view is readable with the same
        // bytes.
        let flat = view_flat(&fs);
        for (path, bytes) in &flat.files {
            let p = Path::parse(path).expect("view paths are valid");
            assert_eq!(&fs.read_file(&p).expect("file exists"), bytes);
        }
    }
}

/// Journal record encoding round-trips every operation.
#[test]
fn journal_ops_encode_round_trip() {
    let mut rng = SpecRng::for_obligation("fs::tests::journal_ops_encode_round_trip");
    for _ in 0..64 {
        let op = arbitrary_op(&mut rng);
        let mut jfs = veros_fs::JournaledFs::format(veros_hw::SimDisk::new(1024));
        // Apply may fail (e.g. Unlink of nothing); both outcomes must be
        // stable across a recovery cycle.
        let _ = jfs.apply(op);
        jfs.commit().expect("commit");
        let state = jfs.fs.clone();
        let recovered = veros_fs::JournaledFs::recover(jfs.into_disk());
        assert_eq!(recovered.fs, state);
    }
}

/// Path join/split are exact inverses, and re-parsing the rendered path
/// is the identity.
#[test]
fn path_join_split_inverse() {
    let mut rng = SpecRng::for_obligation("fs::tests::path_join_split_inverse");
    let letters: Vec<char> = ('a'..='z').collect();
    for _ in 0..128 {
        let comps: Vec<String> = (0..1 + rng.index(5))
            .map(|_| (0..1 + rng.index(8)).map(|_| *rng.choose(&letters)).collect())
            .collect();
        let mut p = Path::root();
        for c in &comps {
            p = p.join(c);
        }
        // split_last unwinds join exactly.
        let mut back = Vec::new();
        let mut cur = p.clone();
        while let Some((parent, last)) = cur.clone().split_last().map(|(a, b)| (a, b.to_string())) {
            back.push(last);
            cur = parent;
        }
        back.reverse();
        assert_eq!(back, comps);
        // And re-parsing the string representation is the identity.
        assert_eq!(Path::parse(p.as_str()).expect("rendered paths parse"), p);
    }
}

/// read_at/write_at behave like operations on a byte vector.
#[test]
fn file_io_matches_vec_model() {
    let mut rng = SpecRng::for_obligation("fs::tests::file_io_matches_vec_model");
    for _ in 0..64 {
        let mut fs = MemFs::new();
        let ino = fs.create(&Path::parse("/f").expect("valid")).expect("create");
        let mut model: Vec<u8> = Vec::new();
        for _ in 0..1 + rng.index(9) {
            let off = rng.below(512);
            let mut data = vec![0u8; 1 + rng.index(63)];
            rng.fill(&mut data);
            fs.write_at(ino, off, &data).expect("write");
            let end = off as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[off as usize..end].copy_from_slice(&data);
        }
        assert_eq!(fs.read_file(&Path::parse("/f").expect("valid")).expect("read"), model);
    }
}

/// The design `JournaledFs::apply` had before it validated in place,
/// kept as the trivially correct oracle: apply to a clone of the whole
/// tree, journal, swap the clone in. It needs nothing but the public
/// `MemFs: Clone` and `FsOp::apply`; the journal write borrows the real
/// `apply`, whose in-memory effect the swap then overwrites.
fn oracle_apply(jfs: &mut JournaledFs, op: FsOp) -> Result<(), FsError> {
    let mut probe = jfs.fs.clone();
    op.apply(&mut probe)?;
    jfs.apply(op)?;
    jfs.fs = probe;
    Ok(())
}

/// Ops biased towards every failure class the check must classify
/// exactly as apply-to-a-clone does: duplicate create, create under a
/// file, write/truncate on a directory, `rmdir` non-empty, `unlink`
/// missing, ops on `/`, `MAX_FILE` overflow and unparsable paths.
fn hostile_op(rng: &mut SpecRng) -> FsOp {
    let mut op = arbitrary_op(rng);
    match rng.below(12) {
        0 => op = FsOp::WriteAt(arbitrary_path(rng), MAX_FILE - rng.below(4), vec![7; 4]),
        1 => op = FsOp::Truncate(arbitrary_path(rng), MAX_FILE + 1 + rng.below(2)),
        n @ 2..=4 => {
            let bad = ["", "a", "//a", "/a/", "/a/./b", "/a/../b"];
            let p = if n == 2 { *rng.choose(&bad) } else { "/" };
            let (FsOp::Create(q) | FsOp::Mkdir(q) | FsOp::Unlink(q) | FsOp::Rmdir(q)
            | FsOp::WriteAt(q, _, _) | FsOp::Truncate(q, _)) = &mut op;
            *q = p.into();
        }
        _ => {}
    }
    op
}

/// One byte per outcome, for the pinned digest.
fn outcome_code(r: &Result<(), FsError>) -> u8 {
    match r {
        Ok(()) => 0,
        Err(FsError::NotFound) => 1,
        Err(FsError::AlreadyExists) => 2,
        Err(FsError::NotADirectory) => 3,
        Err(FsError::IsADirectory) => 4,
        Err(FsError::NotEmpty) => 5,
        Err(FsError::NoSpace) => 6,
    }
}

/// Differential: validate → journal → apply-in-place against the
/// clone-based oracle, op by op — same `Result`, same tree, same
/// `SimDisk::stats()`, nothing touched by a failure, same recovered
/// state. Every third round runs on a disk of a few sectors so that
/// `NoSpace` from the journal is a common outcome.
///
/// Both sides share today's `FsOp::apply` and journal, so the run is
/// also pinned to a digest of every outcome, disk counter and recovered
/// tree. Only a change of the journal format may move it: the format
/// decides when sectors are written and where `NoSpace` falls.
#[test]
fn in_place_apply_matches_the_clone_oracle() {
    let mut rng = SpecRng::for_obligation("fs::tests::in_place_apply_matches_the_clone_oracle");
    let mut trace = Vec::new();
    let mut seen = [0u32; 7];
    for round in 0..96 {
        let sectors = if round % 3 == 0 { 6 + rng.below(24) } else { 1024 };
        let mut real = JournaledFs::format(SimDisk::new(sectors));
        let mut oracle = JournaledFs::format(SimDisk::new(sectors));
        for step in 0..rng.index(60) {
            let op = if rng.chance(1, 6) {
                // A record of several sectors, so a small disk also
                // fills in the middle of a record.
                FsOp::WriteAt(arbitrary_path(&mut rng), rng.below(64), vec![step as u8; 700])
            } else {
                hostile_op(&mut rng)
            };
            let before = (real.fs.clone(), real.disk().stats());
            let got = real.apply(op.clone());
            assert_eq!(got, oracle_apply(&mut oracle, op.clone()), "round {round} step {step}: {op:?}");
            assert_eq!(real.fs, oracle.fs, "round {round} step {step}: {op:?}");
            if got.is_err() {
                assert_eq!((real.fs.clone(), real.disk().stats()), before, "failed {op:?} left a trace");
            }
            if rng.chance(1, 4) {
                assert_eq!(real.commit(), oracle.commit());
            }
            assert_eq!(real.disk().stats(), oracle.disk().stats());
            seen[outcome_code(&got) as usize] += 1;
            trace.push(outcome_code(&got));
            let (writes, flushes) = real.disk().stats();
            trace.extend(writes.to_le_bytes());
            trace.extend(flushes.to_le_bytes());
        }
        let committed = real.commit();
        assert_eq!(committed, oracle.commit());
        let live = real.fs.clone();
        let recovered = JournaledFs::recover(real.into_disk());
        assert_eq!(recovered.fs, JournaledFs::recover(oracle.into_disk()).fs);
        if committed.is_ok() {
            assert_eq!(recovered.fs, live, "round {round}: a committed state survives recovery");
        }
        trace.extend_from_slice(format!("{:?}", view_flat(&recovered.fs)).as_bytes());
    }
    assert!(seen.iter().all(|&n| n >= 10), "every outcome class exercised: {seen:?}");
    assert_eq!(
        veros_spec::rng::fnv1a(&trace),
        12327330224185392451,
        "outcomes, sector writes or recovered trees differ from the clone-based apply"
    );
}
