//! Byte-identity pin of the masking and audit stages.
//!
//! Every protection of the initial population — four datasets × the small
//! and paper suites at 1000 rows, fixed seeds — is reduced to a 64-bit
//! FNV-1a digest of its masked codes, and the privacy report of one audited
//! Adult job to a digest of its `Debug` rendering (which prints every float
//! in shortest round-trip form, so any bit change shows). The expected
//! values were recorded before the masking and audit stages moved onto
//! distinct patterns; a faster path must reproduce them exactly.
//!
//! On a mismatch the failure message carries the full recomputed table.

use cdp::prelude::*;

const RECORDS: usize = 1000;
const SEED: u64 = 11;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_of(data: &SubTable) -> u64 {
    let mut bytes = Vec::with_capacity(data.n_rows() * data.n_attrs() * 2);
    for k in 0..data.n_attrs() {
        for &c in data.column(k) {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
    }
    fnv1a(bytes)
}

fn population_digests(kind: DatasetKind, paper: bool) -> Vec<(String, u64)> {
    let ds = kind.generate(&GeneratorConfig::seeded(SEED).with_records(RECORDS));
    let cfg = if paper {
        SuiteConfig::paper(kind)
    } else {
        SuiteConfig::small()
    };
    build_population(&ds, &cfg, SEED)
        .unwrap()
        .into_iter()
        .map(|p| (p.name, digest_of(&p.data)))
        .collect()
}

fn check(label: &str, actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((an, ad), (en, ed))| an == en && ad == ed);
    if !same {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect();
        panic!("{label}: population digests drifted; recomputed table:\n{table}");
    }
}

macro_rules! pin {
    ($test:ident, $kind:expr, $paper:expr, $expected:ident) => {
        #[test]
        fn $test() {
            check(
                stringify!($expected),
                &population_digests($kind, $paper),
                $expected,
            );
        }
    };
}

pin!(adult_small, DatasetKind::Adult, false, ADULT_SMALL);
pin!(adult_paper, DatasetKind::Adult, true, ADULT_PAPER);
pin!(housing_small, DatasetKind::Housing, false, HOUSING_SMALL);
pin!(housing_paper, DatasetKind::Housing, true, HOUSING_PAPER);
pin!(german_small, DatasetKind::German, false, GERMAN_SMALL);
pin!(german_paper, DatasetKind::German, true, GERMAN_PAPER);
pin!(flare_small, DatasetKind::Flare, false, FLARE_SMALL);
pin!(flare_paper, DatasetKind::Flare, true, FLARE_PAPER);

#[test]
fn audited_adult_job_report() {
    let report = ProtectionJob::builder()
        .dataset(DatasetKind::Adult)
        .records(RECORDS)
        .generator_seed(SEED)
        .suite_small()
        .iterations(10)
        .seed(SEED)
        .audit_sensitive(["RELATIONSHIP", "INCOME"])
        .build()
        .unwrap()
        .run()
        .unwrap();
    let privacy = report.privacy.expect("audit enabled");
    let rendered = format!("{privacy:?}");
    let digest = fnv1a(rendered.bytes());
    assert_eq!(
        digest, AUDITED_ADULT_REPORT,
        "privacy report drifted ({digest:#018x}):\n{rendered}"
    );
}

const AUDITED_ADULT_REPORT: u64 = 0xf26b067ed21e084f;

const ADULT_SMALL: &[(&str, u64)] = &[
    ("microagg(k=3,uni,median)", 0xa14d1bcab00a511a),
    ("microagg(k=3,multi,mode)", 0x3d5bb40191fed584),
    ("microagg(k=6,uni,median)", 0x7fcc0d862f9de77d),
    ("microagg(k=6,multi,mode)", 0x8eef40c3e810dabd),
    ("bottom(q=0.10)", 0x28e62a015f36c7a9),
    ("bottom(q=0.25)", 0x50cc21875165c1d1),
    ("top(q=0.10)", 0x9711d529fd2a419c),
    ("top(q=0.25)", 0x61b2c852e6415dce),
    ("grec(l=[1])", 0xeecb380b1b8fddf9),
    ("rankswap(p=2)", 0x807f623328b10a82),
    ("rankswap(p=8)", 0x8a5711e3267176ba),
    ("pram(theta=0.70,prop)", 0x0b74e3b5024f6094),
];
const ADULT_PAPER: &[(&str, u64)] = &[
    ("microagg(k=2,uni,median)", 0xbce91c159d1bd715),
    ("microagg(k=2,uni,mode)", 0x19eda803bfa3c76d),
    ("microagg(k=2,multi,median)", 0x7347a379737bd2e5),
    ("microagg(k=2,multi,mode)", 0x4b33a0fa309e777d),
    ("microagg(k=2,bi,median)", 0xfc5dbd23400c0c65),
    ("microagg(k=2,bi,mode)", 0xd8373d850aabf65d),
    ("microagg(k=3,uni,median)", 0xa14d1bcab00a511a),
    ("microagg(k=3,uni,mode)", 0xa14d1bcab00a511a),
    ("microagg(k=3,multi,median)", 0x92aa5ae882a58394),
    ("microagg(k=3,multi,mode)", 0x3d5bb40191fed584),
    ("microagg(k=3,bi,median)", 0x96ee42feab8ad381),
    ("microagg(k=3,bi,mode)", 0x2c5b73d4f9abad5d),
    ("microagg(k=4,uni,median)", 0x96d2dadf4d1590fd),
    ("microagg(k=4,uni,mode)", 0x6a1b1345101c2acd),
    ("microagg(k=4,multi,median)", 0xcfffec1aa86302bd),
    ("microagg(k=4,multi,mode)", 0x882fe7cbff866bbd),
    ("microagg(k=4,bi,median)", 0x79ef9b22882f75d5),
    ("microagg(k=4,bi,mode)", 0x1a359839b113762d),
    ("microagg(k=5,uni,median)", 0x9061e747de9d3116),
    ("microagg(k=5,uni,mode)", 0x9061e747de9d3116),
    ("microagg(k=5,multi,median)", 0x8a92fe238f5be378),
    ("microagg(k=5,multi,mode)", 0x85001dee89b5420b),
    ("microagg(k=5,bi,median)", 0x25aaad95a608573e),
    ("microagg(k=5,bi,mode)", 0x796875e1d96c9016),
    ("microagg(k=6,uni,median)", 0x7fcc0d862f9de77d),
    ("microagg(k=6,uni,mode)", 0xed462bd9e5e2dbed),
    ("microagg(k=6,multi,median)", 0xfb883d9f79b9be8d),
    ("microagg(k=6,multi,mode)", 0x8eef40c3e810dabd),
    ("microagg(k=6,bi,median)", 0xf6f242a68a8bf92d),
    ("microagg(k=6,bi,mode)", 0xe83c221ce50945c5),
    ("microagg(k=8,uni,median)", 0x34d1ed6e5e60670d),
    ("microagg(k=8,uni,mode)", 0x144650b6a02d1495),
    ("microagg(k=8,multi,median)", 0x65ecf55cf2592685),
    ("microagg(k=8,multi,mode)", 0xed8bdcf8666b0b55),
    ("microagg(k=8,bi,median)", 0x802cc120b5365afd),
    ("microagg(k=8,bi,mode)", 0x18059abe0c5e70a5),
    ("microagg(k=10,uni,median)", 0x2bc8caad1c2f13d5),
    ("microagg(k=10,uni,mode)", 0x2bc8caad1c2f13d5),
    ("microagg(k=10,multi,median)", 0x81ec2ed2960d9405),
    ("microagg(k=10,multi,mode)", 0x69c62b53c7735ff5),
    ("microagg(k=10,bi,median)", 0x8a3fb7b9fe42f96d),
    ("microagg(k=10,bi,mode)", 0x1d38cfe061ea139d),
    ("microagg(k=15,uni,median)", 0xa031912a8ef8dffc),
    ("microagg(k=15,uni,mode)", 0xa031912a8ef8dffc),
    ("microagg(k=15,multi,median)", 0x73f47a30e87875f6),
    ("microagg(k=15,multi,mode)", 0xcf738951d28091b8),
    ("microagg(k=15,bi,median)", 0x9084465c2eb3f2d4),
    ("microagg(k=15,bi,mode)", 0xedf56ccc3fbec8ba),
    ("bottom(q=0.05)", 0x109bdc9a6402e60b),
    ("bottom(q=0.10)", 0x28e62a015f36c7a9),
    ("bottom(q=0.15)", 0xa6823832d700da21),
    ("bottom(q=0.20)", 0x4bcf6a4a512e7af9),
    ("bottom(q=0.25)", 0x50cc21875165c1d1),
    ("bottom(q=0.30)", 0xa2a3d4fbc8a97ad4),
    ("top(q=0.05)", 0xcb9cad5d14920fc2),
    ("top(q=0.10)", 0x9711d529fd2a419c),
    ("top(q=0.15)", 0x09a0f0ee73dcf5a5),
    ("top(q=0.20)", 0x5e4766f8382d8a7f),
    ("top(q=0.25)", 0x61b2c852e6415dce),
    ("top(q=0.30)", 0x51cab9413da23ac4),
    ("grec(l=[1,1,1])", 0xeecb380b1b8fddf9),
    ("grec(l=[1,1,2])", 0x1867af91ce2c05f6),
    ("grec(l=[1,2,1])", 0xf41fecc204d888a0),
    ("grec(l=[2,1,1])", 0x4dda3ddbf393a809),
    ("grec(l=[2,2,1])", 0x532ef292dcdc52b0),
    ("grec(l=[2,2,2])", 0xb07cb154ba77835f),
    ("rankswap(p=1)", 0xac2fa857a2687082),
    ("rankswap(p=2)", 0x680f818026b70392),
    ("rankswap(p=3)", 0x516ed6cbf05a6572),
    ("rankswap(p=4)", 0x7b60757b0e54b3d2),
    ("rankswap(p=5)", 0xb6125fdf7c851052),
    ("rankswap(p=6)", 0x426bad70f04e225a),
    ("rankswap(p=7)", 0xea96bb0fca0e646a),
    ("rankswap(p=8)", 0x45fdbc69e288038a),
    ("rankswap(p=9)", 0x5397f7b70a36defa),
    ("rankswap(p=10)", 0x0fca87c65f68d4e2),
    ("rankswap(p=11)", 0x57cbdfba95b52b12),
    ("pram(theta=0.50,prop)", 0xee6302d53f1e5a67),
    ("pram(theta=0.55,prop)", 0x7dfd33f28cab0355),
    ("pram(theta=0.60,prop)", 0x1484175da10596f7),
    ("pram(theta=0.65,prop)", 0x20ac531102fe3883),
    ("pram(theta=0.70,prop)", 0xb238489f0bd573cf),
    ("pram(theta=0.75,prop)", 0xaf234f7655681c4d),
    ("pram(theta=0.80,prop)", 0x1a9fa6de7369e9a9),
    ("pram(theta=0.85,prop)", 0x813eefa7f54b0db4),
    ("pram(theta=0.90,prop)", 0x4fd692ca7993aec5),
];
const HOUSING_SMALL: &[(&str, u64)] = &[
    ("microagg(k=3,uni,median)", 0xa8e25db970d6dd16),
    ("microagg(k=3,multi,mode)", 0x8d47b596c88c3808),
    ("microagg(k=6,uni,median)", 0x936b3819f2327c4d),
    ("microagg(k=6,multi,mode)", 0xc9703182f4547375),
    ("bottom(q=0.10)", 0x590afad2769a2746),
    ("bottom(q=0.25)", 0x92e31f9737c0d3e4),
    ("top(q=0.10)", 0x8d73568f4c34f804),
    ("top(q=0.25)", 0x935e2671dd38d2a8),
    ("grec(l=[1])", 0xfca180785b83b255),
    ("rankswap(p=2)", 0xf3e31c3e8428803d),
    ("rankswap(p=8)", 0xdea6272a084fb775),
    ("pram(theta=0.70,prop)", 0x86e529a20e704a38),
];
const HOUSING_PAPER: &[(&str, u64)] = &[
    ("microagg(k=2,uni,median)", 0x8e390cd249eb1c2d),
    ("microagg(k=2,uni,mode)", 0x8e390cd249eb1c2d),
    ("microagg(k=2,multi,median)", 0x401a0ecc56899175),
    ("microagg(k=2,multi,mode)", 0x401a0ecc56899175),
    ("microagg(k=2,bi,median)", 0x2891b767bd4484dd),
    ("microagg(k=2,bi,mode)", 0x2891b767bd4484dd),
    ("microagg(k=3,uni,median)", 0xa8e25db970d6dd16),
    ("microagg(k=3,uni,mode)", 0xa8e25db970d6dd16),
    ("microagg(k=3,multi,median)", 0x40ef085ce7c79e3f),
    ("microagg(k=3,multi,mode)", 0x8d47b596c88c3808),
    ("microagg(k=3,bi,median)", 0x78ad027a517f1585),
    ("microagg(k=3,bi,mode)", 0x4426618edd10c4eb),
    ("microagg(k=4,uni,median)", 0xd7ea1ff4e6ce9795),
    ("microagg(k=4,uni,mode)", 0xd7ea1ff4e6ce9795),
    ("microagg(k=4,multi,median)", 0xa99d86dc43a778e5),
    ("microagg(k=4,multi,mode)", 0xd92bb80d53ef8c95),
    ("microagg(k=4,bi,median)", 0x66045275f6f94ef5),
    ("microagg(k=4,bi,mode)", 0x81c9b8d557224825),
    ("microagg(k=5,uni,median)", 0xe5ea8ae5c0d52059),
    ("microagg(k=5,uni,mode)", 0xe5ea8ae5c0d52059),
    ("microagg(k=5,multi,median)", 0x5c780b750b0d3b11),
    ("microagg(k=5,multi,mode)", 0xe4edf63a76e22b69),
    ("microagg(k=5,bi,median)", 0x1bf86703e2a092c7),
    ("microagg(k=5,bi,mode)", 0x927c2f90b4da13e0),
    ("microagg(k=6,uni,median)", 0x936b3819f2327c4d),
    ("microagg(k=6,uni,mode)", 0x936b3819f2327c4d),
    ("microagg(k=6,multi,median)", 0x86b60f97ef460eed),
    ("microagg(k=6,multi,mode)", 0xc9703182f4547375),
    ("microagg(k=6,bi,median)", 0xd529f81a80efc8e5),
    ("microagg(k=6,bi,mode)", 0x2c0c11e9e316529d),
    ("microagg(k=7,uni,median)", 0xe23ceeeee349c970),
    ("microagg(k=7,uni,mode)", 0xe23ceeeee349c970),
    ("microagg(k=7,multi,median)", 0xcde64d7dee0db00a),
    ("microagg(k=7,multi,mode)", 0x630e9a01b8b94960),
    ("microagg(k=7,bi,median)", 0x551b3ebca0f14e05),
    ("microagg(k=7,bi,mode)", 0xafd1e4b753d653b4),
    ("microagg(k=8,uni,median)", 0xb3f6bd8a155cead5),
    ("microagg(k=8,uni,mode)", 0xb3f6bd8a155cead5),
    ("microagg(k=8,multi,median)", 0xcd8b07da1fb4690d),
    ("microagg(k=8,multi,mode)", 0x8f66bb9ba00088bd),
    ("microagg(k=8,bi,median)", 0x5bccaed6584284fd),
    ("microagg(k=8,bi,mode)", 0x7f602d8cebfa8055),
    ("microagg(k=9,uni,median)", 0x33e4d2d042397613),
    ("microagg(k=9,uni,mode)", 0x33e4d2d042397613),
    ("microagg(k=9,multi,median)", 0x3e1af8cf1ea91b34),
    ("microagg(k=9,multi,mode)", 0xb78a98f98c5a1947),
    ("microagg(k=9,bi,median)", 0xf297722773017ac6),
    ("microagg(k=9,bi,mode)", 0xf85270e8ac54655c),
    ("microagg(k=10,uni,median)", 0x0bb47b4ad6ed414d),
    ("microagg(k=10,uni,mode)", 0x0bb47b4ad6ed414d),
    ("microagg(k=10,multi,median)", 0xf505a045e8acecb5),
    ("microagg(k=10,multi,mode)", 0x6a390e4f0ebc9bd5),
    ("microagg(k=10,bi,median)", 0x44e98365227999b5),
    ("microagg(k=10,bi,mode)", 0xdf806f81ece704d5),
    ("microagg(k=12,uni,median)", 0xe458bd23f69b5d95),
    ("microagg(k=12,uni,mode)", 0xe458bd23f69b5d95),
    ("microagg(k=12,multi,median)", 0x88d39997cd4f541d),
    ("microagg(k=12,multi,mode)", 0xe3ef685fa184480d),
    ("microagg(k=12,bi,median)", 0x4e37b8f93b468685),
    ("microagg(k=12,bi,mode)", 0x6a6cd8203dca5235),
    ("microagg(k=15,uni,median)", 0x5b0144e9b3f154d8),
    ("microagg(k=15,uni,mode)", 0x5b0144e9b3f154d8),
    ("microagg(k=15,multi,median)", 0x7c8ea558bbbf924a),
    ("microagg(k=15,multi,mode)", 0xe59b07996d850e3c),
    ("microagg(k=15,bi,median)", 0x1c131494935df4b3),
    ("microagg(k=15,bi,mode)", 0xc9f452fa7b834c81),
    ("microagg(k=20,uni,median)", 0x3abdb6c07e3c4345),
    ("microagg(k=20,uni,mode)", 0x3abdb6c07e3c4345),
    ("microagg(k=20,multi,median)", 0x34c3d124cc18f345),
    ("microagg(k=20,multi,mode)", 0x42a48a1a5d2de155),
    ("microagg(k=20,bi,median)", 0x8a693b73ad62132d),
    ("microagg(k=20,bi,mode)", 0x72e84c67e917dea5),
    ("bottom(q=0.05)", 0x7815e104007f20ef),
    ("bottom(q=0.10)", 0x590afad2769a2746),
    ("bottom(q=0.15)", 0x129cc26c5ab01206),
    ("bottom(q=0.20)", 0x2840877577fe32f6),
    ("bottom(q=0.25)", 0x92e31f9737c0d3e4),
    ("bottom(q=0.30)", 0xba162b1903dcc417),
    ("top(q=0.05)", 0x6dbed3a4017fa9dc),
    ("top(q=0.10)", 0x8d73568f4c34f804),
    ("top(q=0.15)", 0x6ab717f6bf585bbb),
    ("top(q=0.20)", 0x8b736f1b9b0a8f8b),
    ("top(q=0.25)", 0x935e2671dd38d2a8),
    ("top(q=0.30)", 0xea83832a3e6d1f4f),
    ("grec(l=[1,1,1])", 0xfca180785b83b255),
    ("grec(l=[1,1,2])", 0x124c0bf485e2853f),
    ("grec(l=[1,2,1])", 0x0f2ad60e0d1b61a7),
    ("grec(l=[2,1,1])", 0x3564e37816c063e5),
    ("grec(l=[2,2,1])", 0xe27d8b0ec36f0937),
    ("grec(l=[2,2,2])", 0x552caa8694f7725d),
    ("rankswap(p=1)", 0xba434c471ddf7b4d),
    ("rankswap(p=2)", 0xae910c6c1870f795),
    ("rankswap(p=3)", 0x03729487ce27cd75),
    ("rankswap(p=4)", 0x9e902c66dca73b4d),
    ("rankswap(p=5)", 0x0b655a59ff6922e5),
    ("rankswap(p=6)", 0x1227b97982fd041d),
    ("rankswap(p=7)", 0xccc5a0af08d59a6d),
    ("rankswap(p=8)", 0x2bc140d1eac156d5),
    ("rankswap(p=9)", 0xc7c96a22e6dda8cd),
    ("rankswap(p=10)", 0x2b9eb2c85be18275),
    ("rankswap(p=11)", 0x1ee6947070998975),
    ("pram(theta=0.50,prop)", 0x96e4b15937755f44),
    ("pram(theta=0.55,prop)", 0x8789cf205dea944a),
    ("pram(theta=0.60,prop)", 0xd59ba7b76ffbbe6b),
    ("pram(theta=0.65,prop)", 0x4a64b8e463546b49),
    ("pram(theta=0.70,prop)", 0x3d10f9c11114dca9),
    ("pram(theta=0.75,prop)", 0x84174a8e23d3f1a6),
    ("pram(theta=0.80,prop)", 0x720f55f097b1c8f2),
    ("pram(theta=0.85,prop)", 0xe2f339b9d680a29d),
    ("pram(theta=0.90,prop)", 0x49ff30c60bbd13eb),
];
const GERMAN_SMALL: &[(&str, u64)] = &[
    ("microagg(k=3,uni,median)", 0xbdaddc5146e65bd9),
    ("microagg(k=3,multi,mode)", 0xe8515e5df344655e),
    ("microagg(k=6,uni,median)", 0x7b20791c7f6ce385),
    ("microagg(k=6,multi,mode)", 0xfd8cc9a28e56c2c5),
    ("bottom(q=0.10)", 0x530cccb3add63d7d),
    ("bottom(q=0.25)", 0xe62f2c76a4e23f7c),
    ("top(q=0.10)", 0x7eed16f94ee3c1dd),
    ("top(q=0.25)", 0x06746afa31f50ad5),
    ("grec(l=[1])", 0x5f2ce90dbc5af4e5),
    ("rankswap(p=2)", 0xa0c175057586f5c5),
    ("rankswap(p=8)", 0xfd1e2f5754a3ac9d),
    ("pram(theta=0.70,prop)", 0x65aa0895582dae5f),
];
const GERMAN_PAPER: &[(&str, u64)] = &[
    ("microagg(k=2,uni,median)", 0x24677d65f12655b5),
    ("microagg(k=2,uni,mode)", 0x24677d65f12655b5),
    ("microagg(k=2,multi,median)", 0x26ddfacbcd78ad0d),
    ("microagg(k=2,multi,mode)", 0x26ddfacbcd78ad0d),
    ("microagg(k=2,bi,median)", 0xdfa1091adf6686e5),
    ("microagg(k=2,bi,mode)", 0xdfa1091adf6686e5),
    ("microagg(k=3,uni,median)", 0xbdaddc5146e65bd9),
    ("microagg(k=3,uni,mode)", 0xbdaddc5146e65bd9),
    ("microagg(k=3,multi,median)", 0x1f906702d1bfad0c),
    ("microagg(k=3,multi,mode)", 0xe8515e5df344655e),
    ("microagg(k=3,bi,median)", 0x5bfcc8f519b65f49),
    ("microagg(k=3,bi,mode)", 0xff7215e12c86bdfc),
    ("microagg(k=4,uni,median)", 0x1058cbd1eec40475),
    ("microagg(k=4,uni,mode)", 0x1058cbd1eec40475),
    ("microagg(k=4,multi,median)", 0x9f06150ffc648d75),
    ("microagg(k=4,multi,mode)", 0x2b0c85f2dcd073e5),
    ("microagg(k=4,bi,median)", 0x196f5c3ee6ae5cd5),
    ("microagg(k=4,bi,mode)", 0x196f5c3ee6ae5cd5),
    ("microagg(k=5,uni,median)", 0xf027344914d5bbb8),
    ("microagg(k=5,uni,mode)", 0xf027344914d5bbb8),
    ("microagg(k=5,multi,median)", 0x321a77719567c7dc),
    ("microagg(k=5,multi,mode)", 0xdceaf759713f3a17),
    ("microagg(k=5,bi,median)", 0x1955cae5d97c4ff6),
    ("microagg(k=5,bi,mode)", 0x46663cb2f0b0108d),
    ("microagg(k=6,uni,median)", 0x7b20791c7f6ce385),
    ("microagg(k=6,uni,mode)", 0x7b20791c7f6ce385),
    ("microagg(k=6,multi,median)", 0x17fceedf52248d0d),
    ("microagg(k=6,multi,mode)", 0xfd8cc9a28e56c2c5),
    ("microagg(k=6,bi,median)", 0x308c15a98537b90d),
    ("microagg(k=6,bi,mode)", 0x8a07db4a27aa26ad),
    ("microagg(k=7,uni,median)", 0x28cf4201cc7aa5c9),
    ("microagg(k=7,uni,mode)", 0x28cf4201cc7aa5c9),
    ("microagg(k=7,multi,median)", 0x02bb4194f2dc8d1a),
    ("microagg(k=7,multi,mode)", 0xa1134d0605ea9faa),
    ("microagg(k=7,bi,median)", 0xfbbd34281fd23612),
    ("microagg(k=7,bi,mode)", 0xfbbd34281fd23612),
    ("microagg(k=8,uni,median)", 0xf0eba58a11142f65),
    ("microagg(k=8,uni,mode)", 0xf0eba58a11142f65),
    ("microagg(k=8,multi,median)", 0x5dcd2906cc023d15),
    ("microagg(k=8,multi,mode)", 0x0f1deec5067b9c75),
    ("microagg(k=8,bi,median)", 0xafdb6205af7c6b45),
    ("microagg(k=8,bi,mode)", 0xafdb6205af7c6b45),
    ("microagg(k=9,uni,median)", 0x4b4aca2fb3abbce4),
    ("microagg(k=9,uni,mode)", 0x4b4aca2fb3abbce4),
    ("microagg(k=9,multi,median)", 0xd58415ee3bcd4e02),
    ("microagg(k=9,multi,mode)", 0x8a13df7342966377),
    ("microagg(k=9,bi,median)", 0x8cf41041dc71121c),
    ("microagg(k=9,bi,mode)", 0x8cf41041dc71121c),
    ("microagg(k=10,uni,median)", 0xbb5b017e63fe7d6d),
    ("microagg(k=10,uni,mode)", 0xbb5b017e63fe7d6d),
    ("microagg(k=10,multi,median)", 0x8efa47d47ebbbf4d),
    ("microagg(k=10,multi,mode)", 0x9b285c1682df01d5),
    ("microagg(k=10,bi,median)", 0x80c132589d20333d),
    ("microagg(k=10,bi,mode)", 0xbdae0806749a53bd),
    ("microagg(k=12,uni,median)", 0xcdc4260e2ddd685d),
    ("microagg(k=12,uni,mode)", 0xcdc4260e2ddd685d),
    ("microagg(k=12,multi,median)", 0xb99a677eca03d9fd),
    ("microagg(k=12,multi,mode)", 0xc59ed470a3dc5a2d),
    ("microagg(k=12,bi,median)", 0xd8204e4bbe339e15),
    ("microagg(k=12,bi,mode)", 0xd8204e4bbe339e15),
    ("microagg(k=15,uni,median)", 0x0f300cef6915aed0),
    ("microagg(k=15,uni,mode)", 0x0f300cef6915aed0),
    ("microagg(k=15,multi,median)", 0x68f21f74950c932a),
    ("microagg(k=15,multi,mode)", 0x62ba269c181c4d76),
    ("microagg(k=15,bi,median)", 0xa42dfd93658d96ff),
    ("microagg(k=15,bi,mode)", 0x93179a1794a120a0),
    ("microagg(k=20,uni,median)", 0x19d951d4c26c732d),
    ("microagg(k=20,uni,mode)", 0x19d951d4c26c732d),
    ("microagg(k=20,multi,median)", 0xaf4215eb7779e345),
    ("microagg(k=20,multi,mode)", 0x6f24aca53896ad45),
    ("microagg(k=20,bi,median)", 0x27991b2a857256bd),
    ("microagg(k=20,bi,mode)", 0x42931d54028edf0d),
    ("bottom(q=0.05)", 0x530cccb3add63d7d),
    ("bottom(q=0.10)", 0x530cccb3add63d7d),
    ("bottom(q=0.20)", 0xe62f2c76a4e23f7c),
    ("bottom(q=0.30)", 0xe62f2c76a4e23f7c),
    ("top(q=0.05)", 0x530cccb3add63d7d),
    ("top(q=0.10)", 0x7eed16f94ee3c1dd),
    ("top(q=0.20)", 0x78658ff4f95bec65),
    ("top(q=0.30)", 0x06746afa31f50ad5),
    ("grec(l=[1,1,1])", 0x5f2ce90dbc5af4e5),
    ("grec(l=[1,2,1])", 0xbb4e8ca3511208ae),
    ("grec(l=[2,1,2])", 0xd73a01ea3faa446e),
    ("grec(l=[2,2,2])", 0x938b0b9e93256965),
    ("rankswap(p=1)", 0x8ebe9e035bd559bd),
    ("rankswap(p=2)", 0x1943a3b2854af1ad),
    ("rankswap(p=3)", 0x7c9836f3000bf4ed),
    ("rankswap(p=4)", 0x6693c07b46cc2735),
    ("rankswap(p=5)", 0x4f5bda289ab6869d),
    ("rankswap(p=6)", 0x7fc5fe46380685c5),
    ("rankswap(p=7)", 0xe33115b8843b21d5),
    ("rankswap(p=8)", 0x6b1ecd0e75528205),
    ("rankswap(p=9)", 0x05e2cf6c8971145d),
    ("rankswap(p=10)", 0xeffa4ec17d25de75),
    ("rankswap(p=11)", 0x166161b0d8f46f7d),
    ("pram(theta=0.50,prop)", 0x5a783c0212e3009b),
    ("pram(theta=0.55,prop)", 0x768b3e2be57a93c5),
    ("pram(theta=0.60,prop)", 0x9483df5530159dd3),
    ("pram(theta=0.65,prop)", 0x435c344a2543b6bb),
    ("pram(theta=0.70,prop)", 0x2f204e0663fb24da),
    ("pram(theta=0.75,prop)", 0x0b6afa0b88a05115),
    ("pram(theta=0.80,prop)", 0x00e08789be9e959a),
    ("pram(theta=0.85,prop)", 0x3b0ee99f07ed3902),
    ("pram(theta=0.90,prop)", 0xdf827cf0454493ef),
];
const FLARE_SMALL: &[(&str, u64)] = &[
    ("microagg(k=3,uni,median)", 0x0837d5ff7e17f89f),
    ("microagg(k=3,multi,mode)", 0x441e013a225676c7),
    ("microagg(k=6,uni,median)", 0x9e8083d57b48692d),
    ("microagg(k=6,multi,mode)", 0xdcde45b13224fcd5),
    ("bottom(q=0.10)", 0x05f7923d1f7fc5bb),
    ("bottom(q=0.25)", 0xc87128f608e4a252),
    ("top(q=0.10)", 0x193f77f73a510098),
    ("top(q=0.25)", 0x8ec9b0718bc6773b),
    ("grec(l=[1])", 0xb211763cd36c9e9b),
    ("rankswap(p=2)", 0x2d2da2d345235543),
    ("rankswap(p=8)", 0xf3ee51d970779263),
    ("pram(theta=0.70,prop)", 0x2225d87f547892da),
];
const FLARE_PAPER: &[(&str, u64)] = &[
    ("microagg(k=2,uni,median)", 0xaf95810ba8bdaf65),
    ("microagg(k=2,uni,mode)", 0xb70c97483992c6b5),
    ("microagg(k=2,multi,median)", 0x12b46a203ecbbce5),
    ("microagg(k=2,multi,mode)", 0xafbd52c74823ae8d),
    ("microagg(k=2,bi,median)", 0x9ed5de10d6118295),
    ("microagg(k=2,bi,mode)", 0xa64cf44d66e699e5),
    ("microagg(k=3,uni,median)", 0x0837d5ff7e17f89f),
    ("microagg(k=3,uni,mode)", 0x0837d5ff7e17f89f),
    ("microagg(k=3,multi,median)", 0xc06065378590cdd1),
    ("microagg(k=3,multi,mode)", 0x441e013a225676c7),
    ("microagg(k=3,bi,median)", 0x485c2d1e7cde7945),
    ("microagg(k=3,bi,mode)", 0x2c83c2c64ba682b2),
    ("microagg(k=4,uni,median)", 0x08e003dbda34d33d),
    ("microagg(k=4,uni,mode)", 0x1b834c69c0ba4c7d),
    ("microagg(k=4,multi,median)", 0xef76928789a1038d),
    ("microagg(k=4,multi,mode)", 0x40b431a8db3b4b35),
    ("microagg(k=4,bi,median)", 0x4905b1d0a6a9a6f5),
    ("microagg(k=4,bi,mode)", 0x4930f44776a7f295),
    ("microagg(k=5,uni,median)", 0x1fceda431911c797),
    ("microagg(k=5,uni,mode)", 0x1fceda431911c797),
    ("microagg(k=5,multi,median)", 0x215a32cafc4e393b),
    ("microagg(k=5,multi,mode)", 0xd50d1f67412779b3),
    ("microagg(k=5,bi,median)", 0xd6a2a144e4c7a5a2),
    ("microagg(k=5,bi,mode)", 0xd6a2a144e4c7a5a2),
    ("microagg(k=6,uni,median)", 0x9e8083d57b48692d),
    ("microagg(k=6,uni,mode)", 0x9e8083d57b48692d),
    ("microagg(k=6,multi,median)", 0x8b6ec3075321045d),
    ("microagg(k=6,multi,mode)", 0xdcde45b13224fcd5),
    ("microagg(k=6,bi,median)", 0x55bbbf2bca858305),
    ("microagg(k=6,bi,mode)", 0x8287396e15f0a56d),
    ("microagg(k=7,uni,median)", 0xfbe936848327cf0c),
    ("microagg(k=7,uni,mode)", 0xfbe936848327cf0c),
    ("microagg(k=7,multi,median)", 0xa730c6b5d8476da3),
    ("microagg(k=7,multi,mode)", 0xf7cb8cd60651afc6),
    ("microagg(k=7,bi,median)", 0x9bef9c86cbc2193c),
    ("microagg(k=7,bi,mode)", 0x09cfa12f06bf1536),
    ("microagg(k=8,uni,median)", 0xbdb078b4ff56e5bd),
    ("microagg(k=8,uni,mode)", 0x35a3d3155ed19e9d),
    ("microagg(k=8,multi,median)", 0x9f6ebfa9c83b7b2d),
    ("microagg(k=8,multi,mode)", 0xd04f8db96aa537b5),
    ("microagg(k=8,bi,median)", 0x3d763237e356534d),
    ("microagg(k=8,bi,mode)", 0x2610238afcbfebdd),
    ("microagg(k=9,uni,median)", 0xb4ee2cce8985ee82),
    ("microagg(k=9,uni,mode)", 0xb4ee2cce8985ee82),
    ("microagg(k=9,multi,median)", 0xe7418715c46dda9a),
    ("microagg(k=9,multi,mode)", 0x0a0d2fcbc2a15cc2),
    ("microagg(k=9,bi,median)", 0x3a031e3f1791d5df),
    ("microagg(k=9,bi,mode)", 0xf637378af7679d24),
    ("microagg(k=10,uni,median)", 0xe3b785d1e5c9d97d),
    ("microagg(k=10,uni,mode)", 0xe3b785d1e5c9d97d),
    ("microagg(k=10,multi,median)", 0x2374e93778e5c775),
    ("microagg(k=10,multi,mode)", 0xf32452e90396254d),
    ("microagg(k=10,bi,median)", 0x10e717a72a877565),
    ("microagg(k=10,bi,mode)", 0x083c7fc941696dad),
    ("microagg(k=12,uni,median)", 0xb5a8f23a64136285),
    ("microagg(k=12,uni,mode)", 0xf66bbc25d52820b5),
    ("microagg(k=12,multi,median)", 0xab376db100dd10ed),
    ("microagg(k=12,multi,mode)", 0xb069ddcd50553535),
    ("microagg(k=12,bi,median)", 0x38de3fabb55819ed),
    ("microagg(k=12,bi,mode)", 0x7bbab7bb28c27d0d),
    ("microagg(k=15,uni,median)", 0x8f4eecafeaa95f3c),
    ("microagg(k=15,uni,mode)", 0x8f4eecafeaa95f3c),
    ("microagg(k=15,multi,median)", 0x7d63cb4081564e8c),
    ("microagg(k=15,multi,mode)", 0x59da50fe7041c9cb),
    ("microagg(k=15,bi,median)", 0x0c0af9bd45f9a367),
    ("microagg(k=15,bi,mode)", 0x687dc71c29d50932),
    ("microagg(k=20,uni,median)", 0xce9fcedb4e7b30b5),
    ("microagg(k=20,uni,mode)", 0xce9fcedb4e7b30b5),
    ("microagg(k=20,multi,median)", 0x9f424f9ab0270ced),
    ("microagg(k=20,multi,mode)", 0x7924ae27f2ce3015),
    ("microagg(k=20,bi,median)", 0x481f7d11a57c30a5),
    ("microagg(k=20,bi,mode)", 0xc47f93ca1537df0d),
    ("bottom(q=0.05)", 0x05f7923d1f7fc5bb),
    ("bottom(q=0.10)", 0x05f7923d1f7fc5bb),
    ("bottom(q=0.20)", 0x05f7923d1f7fc5bb),
    ("bottom(q=0.30)", 0x035941254189bb92),
    ("top(q=0.05)", 0x05f7923d1f7fc5bb),
    ("top(q=0.10)", 0x193f77f73a510098),
    ("top(q=0.20)", 0x51b58845a4eaef83),
    ("top(q=0.30)", 0x84277f4db4a9ca97),
    ("grec(l=[1,1,1])", 0xb211763cd36c9e9b),
    ("grec(l=[1,2,1])", 0x7006d3fc6a8c1669),
    ("grec(l=[2,1,2])", 0xfdc0dbe8519e3c73),
    ("grec(l=[2,2,2])", 0xbbb639a7e8bdb441),
    ("rankswap(p=1)", 0x9583c599f7e0b343),
    ("rankswap(p=2)", 0xbebc2347136dd183),
    ("rankswap(p=3)", 0xfdd161aeb83b989b),
    ("rankswap(p=4)", 0x9743dc53e8a9967b),
    ("rankswap(p=5)", 0x6b8315b8d5924883),
    ("rankswap(p=6)", 0x227ba5142fb8278b),
    ("rankswap(p=7)", 0xc7b210bc55c1597b),
    ("rankswap(p=8)", 0x26df0d01ce424623),
    ("rankswap(p=9)", 0x6948a23a16601c6b),
    ("rankswap(p=10)", 0xaf1aa453bba33fab),
    ("rankswap(p=11)", 0x15e8668fb2d6036b),
    ("pram(theta=0.50,prop)", 0xff39e8a0e515ff28),
    ("pram(theta=0.55,prop)", 0x757ac3b4708baa1f),
    ("pram(theta=0.60,prop)", 0xd044032b76deb163),
    ("pram(theta=0.65,prop)", 0x9454d9739c103b69),
    ("pram(theta=0.70,prop)", 0x38f04a552b6e9205),
    ("pram(theta=0.75,prop)", 0x00b68e14e4084eb7),
    ("pram(theta=0.80,prop)", 0xe5c309deb2a6c87f),
    ("pram(theta=0.85,prop)", 0x7294e487b953e175),
    ("pram(theta=0.90,prop)", 0x3b533267166996b4),
];
