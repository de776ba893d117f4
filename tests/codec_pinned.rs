//! Byte-identity gate for the codec kernels.
//!
//! Compressed sizes feed every `Real` report and every calibrated ratio, so
//! a kernel change that alters a single output byte shifts the goldens. This
//! test pins a digest of every codec's output over real page contents, so a
//! speed-up of the match finders or entropy coders is checked to leave the
//! bytes alone rather than assumed to. A rejected page must also leave the
//! output buffer as it found it, never grown past the page.

use tierscape::compress::{Algorithm, CodecError};
use tierscape::workloads::PageClass;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// Every page class at several seeds, page indices and lengths, plus one
/// 64 KiB input: past 4 KiB the shared finder switches to its larger hash
/// table.
fn inputs() -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    for seed in [0u64, 42, u64::MAX] {
        for idx in [0u64, 7, 1 << 20] {
            for class in PageClass::ALL {
                for len in [4096usize, 1000, 37] {
                    let mut buf = vec![0u8; len];
                    class.fill(seed, idx, &mut buf);
                    inputs.push(buf);
                }
            }
        }
    }
    let mut large = Vec::with_capacity(64 << 10);
    for i in 0..16u64 {
        let mut page = vec![0u8; 4096];
        PageClass::ALL[i as usize % PageClass::ALL.len()].fill(42, i, &mut page);
        large.extend_from_slice(&page);
    }
    inputs.push(large);
    inputs
}

/// FNV-1a digest of each `Algorithm`'s `compress` result on every input:
/// the output bytes, or the kind of error.
#[test]
fn codec_output_is_pinned() {
    let inputs = inputs();
    let mut hash = FNV_OFFSET;
    for algo in Algorithm::ALL {
        let codec = algo.codec();
        fnv(&mut hash, algo.name().as_bytes());
        for input in &inputs {
            let mut out = Vec::new();
            match codec.compress(input, &mut out) {
                Ok(n) => {
                    fnv(&mut hash, &[0]);
                    fnv(&mut hash, &(n as u64).to_le_bytes());
                    fnv(&mut hash, &out);
                }
                Err(CodecError::Incompressible { input_len }) => {
                    fnv(&mut hash, &[1]);
                    fnv(&mut hash, &(input_len as u64).to_le_bytes());
                }
                Err(CodecError::Corrupt(_)) => fnv(&mut hash, &[2]),
                Err(CodecError::OutputOverflow) => fnv(&mut hash, &[3]),
            }
        }
    }
    assert_eq!(
        hash, 0x027e_e148_32ed_0d90,
        "codec output digest {hash:#018x}"
    );
}

/// Every codec but `Store` rejects an incompressible page before writing a
/// page's worth of output: the buffer keeps its length and its capacity.
#[test]
fn rejected_pages_never_outgrow_the_page() {
    for seed in [0u64, 42] {
        let mut page = vec![0u8; 4096];
        PageClass::Incompressible.fill(seed, 3, &mut page);
        for algo in Algorithm::ALL {
            let mut out = Vec::with_capacity(4096);
            assert_eq!(
                algo.codec().compress(&page, &mut out),
                Err(CodecError::Incompressible { input_len: 4096 }),
                "{algo}"
            );
            assert_eq!((out.len(), out.capacity()), (0, 4096), "{algo}");
        }
    }
}
