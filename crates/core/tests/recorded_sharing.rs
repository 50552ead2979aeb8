//! A receive hands the rank the bytes the sender posted, in a recorded run
//! too (DESIGN §9, §11).
//!
//! A recording runtime keeps every send a rank yields on its tape until the
//! next capture, so the sender's handle is still held when the receiver gets
//! the message. When the receive surface returned an owned `Vec<u8>` through
//! `Payload::into_vec`, that shared handle made every recorded receive but
//! the batched waitall's (which handed out the `Payload` already) copy the
//! message, and on that code this test fails. Now every form returns the
//! delivered `Payload`, and the receiver reads the sender's allocation.
//! The same forms without recording are checked by `apps`'
//! `alloc_per_message`.

use bcs_mpi::BcsConfig;
use faultsim::{FaultPlan, RecoveryCfg, run_with_recovery};
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{Job, JobLayout};
use mpi_api::{AsyncMpi, MpiResp, Payload};
use qsnet::FabricKind;
use quadrics_mpi::{QuadricsConfig, QuadricsMpi};

/// The receive forms, in the order every rank uses them.
const FORMS: [&str; 4] = ["batched waitall", "waitall", "wait", "recv"];

/// Rank `r` sends `r + 1` one fresh 4 KiB buffer per receive form and
/// reads what `r - 1` sent through that form. It keeps no handle to what it
/// sends: a recording runtime stamps a send as the rank yields it, and
/// stamping a payload the rank still holds copies it. Returns, per form,
/// the address of the bytes it posted and the payload it received.
async fn pass_on(mut mpi: AsyncMpi) -> Vec<(usize, Payload)> {
    let (me, n) = (mpi.rank(), mpi.size());
    let (next, prev) = ((me + 1) % n, SrcSel::Rank((me + n - 1) % n));
    let mut out = Vec::with_capacity(FORMS.len());
    for form in 0..FORMS.len() {
        let tag = form as i32;
        let mine = vec![(me + form) as u8; 4096];
        let posted = mine.as_ptr() as usize;
        let send = mpi.post_batch(vec![mpi.isend_desc(next, tag, mine)]).await;
        let received = match form {
            0 => {
                let r = mpi.irecv(prev, TagSel::Tag(tag)).await;
                match mpi.batch(vec![mpi.waitall_desc(&[r])]).await.pop() {
                    Some(MpiResp::WaitallDone { mut results }) => results.pop().and_then(|(d, _)| d),
                    other => unreachable!("batched waitall -> {other:?}"),
                }
            }
            1 => {
                let r = mpi.irecv(prev, TagSel::Tag(tag)).await;
                mpi.waitall(&[r]).await.pop().and_then(|(d, _)| d)
            }
            2 => {
                let r = mpi.irecv(prev, TagSel::Tag(tag)).await;
                mpi.wait(r).await.0
            }
            _ => Some(mpi.recv(prev, TagSel::Tag(tag)).await.0),
        };
        mpi.wait(send[0]).await;
        out.push((posted, received.expect("recv payload")));
    }
    out
}

fn assert_shared(engine: &str, results: &[Vec<(usize, Payload)>]) {
    let n = results.len();
    for (r, sent) in results.iter().enumerate() {
        let got = &results[(r + 1) % n];
        for (form, name) in FORMS.iter().enumerate() {
            assert_eq!(
                got[form].1.as_ptr() as usize,
                sent[form].0,
                "{engine}, {name}: rank {} read a copy of what rank {r} posted",
                (r + 1) % n
            );
        }
    }
}

#[test]
fn a_recorded_receiver_reads_the_allocation_the_sender_posted() {
    let layout = JobLayout::new(4, 2, 8);
    for fabric in FabricKind::ALL {
        let rc = RecoveryCfg::new(BcsConfig { fabric, ..BcsConfig::default() }, 2);
        let out = run_with_recovery(&rc, layout.clone(), &FaultPlan::none(), pass_on);
        assert!(out.completed, "{fabric:?}: {:?}", out.abort);
        let results: Vec<_> = out.results.into_iter().map(Option::unwrap).collect();
        assert_shared(&format!("bcs on {}", fabric.name()), &results);
    }
    let quadrics = QuadricsMpi::new(QuadricsConfig::default(), &layout);
    let out = Job::new(quadrics, layout).setup(|w, _| w.set_recording(true)).start(&pass_on);
    assert_shared("quadrics, recorded", &out.expect_complete().results);
}
