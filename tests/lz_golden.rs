//! Golden `gld-lz` streams: the stage's cold and warm bytes, pinned across
//! commits on every kernel backend.
//!
//! `container_golden.rs` pins whole containers, but its frames are too small
//! to reach long matches, far offsets or a seed dictionary's reach.  This
//! table covers them: 24 synthetic byte corpora (runs, periodic patterns and
//! integer noise, the `lz_fuzz` shapes) at lengths up to 70 000 bytes, plus
//! the SZ frames of the S3D, E3SM and JHTDB generators at relative bounds
//! 1e-2, 1e-3 and 1e-4.  Each case records the length and FNV-1a-64 of four
//! byte strings: the cold stream, the warm stream without a dictionary, the
//! warm stream with the previous case's input as dictionary, and the
//! profile's `to_bytes`.  The profile of a case is fitted on the previous
//! case's input, as container v4 fits on a variable's first frame.
//!
//! The table was recorded once and is never regenerated: a diff in it is a
//! stage format change.  There is exactly one `#[test]` here because it
//! forces each backend process-wide in turn.

use gld_baselines::{ErrorBoundedCompressor, SzCompressor};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_lz::{compress, compress_profiled, decompress, decompress_profiled, LzProfile, LzScratch};

/// `(length, FNV-1a-64)` of one byte string.
type Pin = (usize, u64);

/// One recorded case: input pin, then cold, warm, warm-with-dictionary and
/// profile pins.
type Row = (Pin, [Pin; 4]);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(bytes: &[u8]) -> Pin {
    (bytes.len(), fnv1a64(bytes))
}

/// The `lz_fuzz` corpus shapes with integer noise in place of `sin`, so the
/// inputs do not depend on the platform's libm.
fn corpus_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut noise = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|i| {
            noise ^= noise << 13;
            noise ^= noise >> 7;
            noise ^= noise << 17;
            match (i / 97 + (seed % 7) as usize) % 3 {
                0 => (seed as u8).wrapping_add((i % 11) as u8),
                1 => ((i * 31 + seed as usize) % 256) as u8,
                _ => (noise >> 56) as u8 & 0x3F,
            }
        })
        .collect()
}

const CORPUS_LENGTHS: [usize; 24] = [
    0, 1, 3, 4, 7, 16, 31, 64, 100, 255, 511, 1000, 2047, 3000, 4096, 6000, 8191, 12_000, 16_384,
    24_000, 32_768, 45_000, 60_000, 70_000,
];

const SZ_BOUNDS: [f32; 3] = [1e-2, 1e-3, 1e-4];

/// Every input, in table order.
fn inputs() -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = CORPUS_LENGTHS
        .iter()
        .enumerate()
        .map(|(seed, &len)| corpus_bytes(seed as u64, len))
        .collect();
    let sz = SzCompressor::new();
    for kind in [DatasetKind::S3d, DatasetKind::E3sm, DatasetKind::Jhtdb] {
        let variable = &generate(kind, &FieldSpec::new(1, 8, 64, 64), 41).variables[0];
        let (lo, hi) = variable.range();
        for rel in SZ_BOUNDS {
            for t in 0..variable.timesteps() {
                inputs.push(sz.compress(&variable.frame(t), rel * (hi - lo)));
            }
        }
    }
    inputs
}

/// Codes every input on the active backend, checks each stream decodes
/// back, and returns the table rows.
fn record(inputs: &[Vec<u8>]) -> Vec<Row> {
    let mut scratch = LzScratch::new();
    let mut prev: &[u8] = &[];
    inputs
        .iter()
        .map(|input| {
            let cold = compress(input, &mut scratch);
            assert_eq!(&decompress(&cold, input.len()).unwrap(), input);
            let profile = LzProfile::fit(prev, &mut scratch);
            let warm = compress_profiled(input, &[], &profile, &mut scratch);
            assert_eq!(
                &decompress_profiled(&warm, &[], &profile, input.len()).unwrap(),
                input
            );
            let warm_dict = compress_profiled(input, prev, &profile, &mut scratch);
            assert_eq!(
                &decompress_profiled(&warm_dict, prev, &profile, input.len()).unwrap(),
                input
            );
            prev = input;
            let streams = [
                pin(&cold),
                pin(&warm),
                pin(&warm_dict),
                pin(&profile.to_bytes()),
            ];
            (pin(input), streams)
        })
        .collect()
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ((0, 0xcbf29ce484222325), [(1, 0xaf63bd4c8601b7df), (1, 0xaf63bd4c8601b7df), (1, 0xaf63bd4c8601b7df), (642, 0x70fc36c86c278e55)]),
    ((1, 0xaf63bc4c8601b62c), [(2, 0x08328707b4eb6e3a), (2, 0x08328707b4eb6e3a), (2, 0x08328707b4eb6e3a), (642, 0x70fc36c86c278e55)]),
    ((3, 0x9448bf18450c1f01), [(4, 0x92c61f7fc555f96f), (4, 0x92c61f7fc555f96f), (4, 0x92c61f7fc555f96f), (642, 0x41320b975e69d860)]),
    ((4, 0x0fd70a8807b23799), [(5, 0xe23757c00ef91e8b), (5, 0xe23757c00ef91e8b), (5, 0xe23757c00ef91e8b), (642, 0x09a422c1e7f2934f)]),
    ((7, 0xee98859fcc24118a), [(8, 0xe0eae3fa6965df00), (8, 0xe0eae3fa6965df00), (8, 0xe0eae3fa6965df00), (642, 0xb0cdb96336f63d5e)]),
    ((16, 0x74922b13eb1322ee), [(17, 0x8399b4745d6fd3d0), (17, 0x8399b4745d6fd3d0), (17, 0x8399b4745d6fd3d0), (642, 0xfae2a5254ae0a925)]),
    ((31, 0xfc822a7b4542992b), [(20, 0xe8dabd33e928d09d), (19, 0x0fee015b5cdd3a29), (19, 0x0fee015b5cdd3a29), (642, 0xe4ac2afb4528349d)]),
    ((64, 0xc0e57203c36b7d6a), [(20, 0x9ab2e602931d5d11), (19, 0x5f868604adbbb74a), (12, 0x7754dfa63ae7a659), (642, 0x723efb3c4a612e1f)]),
    ((100, 0x4bf3289563f2a86e), [(101, 0xf4f7f0b46fc5c844), (101, 0xf4f7f0b46fc5c844), (101, 0xf4f7f0b46fc5c844), (642, 0x500a2fe6486df76f)]),
    ((255, 0xbb07931fe345c03e), [(168, 0xf94d64202bdada6a), (179, 0x3c5da2f8fde0bb7f), (179, 0x3c5da2f8fde0bb7f), (642, 0x7b8d770b567730a4)]),
    ((511, 0x2add913de80fc0fd), [(274, 0x772442fdca8fbba1), (280, 0x1f4acd03c455efd5), (274, 0xed7c59a361e88182), (642, 0xda1f6a3c1dbbcb51)]),
    ((1000, 0x86398246b6b03c4e), [(520, 0x77fa6e5718af5798), (523, 0xcd259d2b2a6a3513), (448, 0x95ec326a604b1b1c), (642, 0xe14c885eefb2325c)]),
    ((2047, 0x90f353f0437ca1c8), [(915, 0x7b0a64b69025ae8b), (916, 0xaa2ac3c6a43362a2), (707, 0xdec7ff666c0e725f), (642, 0x08a20b79c78aecd6)]),
    ((3000, 0x6e60fac5978321fd), [(1159, 0xb5b8e074631386f1), (1236, 0xb035fc5cf4e03dd3), (867, 0x7c6e8ef931daa9cd), (642, 0xfa1459241d191070)]),
    ((4096, 0x169485fcc69d35bc), [(1501, 0xe2ec2571bd706dbb), (1577, 0xacd7273e6c7260cf), (1198, 0x01f27ce086455aa4), (642, 0xc0ba11c5f3039db3)]),
    ((6000, 0xdcdd7b905f5509af), [(2075, 0x17da8001325851a4), (2153, 0x286bacf19ae988dd), (1764, 0xe8d636fcfce3b5ee), (642, 0x54cbb84d0bede3bb)]),
    ((8191, 0x907fe92e4dfd9ea9), [(2722, 0x9138a359a2980c9d), (2805, 0x6d7524dea3cf1937), (2401, 0x270ea34502a266d7), (642, 0x5eaf7d6518c0e0ce)]),
    ((12000, 0x22940fa1869d2b64), [(3785, 0xa0bcc91a9f23ff94), (3830, 0xe3d97528b15115e9), (3437, 0x207d09bb4c09d048), (642, 0xe3928ec8487d65d4)]),
    ((16384, 0x5f410cd9738bd949), [(5044, 0x89bcf7dcfd43edb5), (5124, 0x64709f9a68078dc5), (4693, 0x5edf3a24e90f0785), (642, 0x8420aafdd8a83b18)]),
    ((24000, 0x9ec479f6f9d62801), [(7315, 0x4662256bb3e3badb), (7427, 0xc1d7521f909994c1), (6970, 0x46c0a7fc702e2256), (642, 0x75dab1d8f6caf140)]),
    ((32768, 0x8d68b5ce5e62ed98), [(9758, 0xa3264860de2e0979), (9831, 0x4a4d6d540f43e9be), (9367, 0x9c2d99c9a9d49bc4), (642, 0x78f413b7aba9c488)]),
    ((45000, 0x418edcff48c7a2f0), [(13251, 0x663f862360ab8c12), (13353, 0x1d678c71dab03022), (12753, 0x651497a301363aa0), (642, 0x2ff1fc6daa209fbd)]),
    ((60000, 0xdd0b9f7e4c0ba0ab), [(17555, 0xe9a4dcc74fda2dfc), (17729, 0xb90c4ac426d6f6ca), (17212, 0xdd0a44a5823519da), (642, 0xc1d804adce7304d0)]),
    ((70000, 0x8fabb03319c3f484), [(20457, 0xdfa2b640279170c6), (20594, 0x5671c308137ccfd5), (19953, 0xc931a24f4670fc72), (642, 0xb9af24b87dd4723e)]),
    ((634, 0x0b9979e5dfdd73f9), [(559, 0xb9d48e1601748c24), (635, 0xd04bfc4fe1ae9da3), (635, 0xd04bfc4fe1ae9da3), (642, 0x30a9b7fad5a02d82)]),
    ((728, 0x3725778686346fbd), [(666, 0xc24568c869b4c392), (685, 0x751bf7d5467d4606), (663, 0xb0b5c9872956726e), (642, 0x95cf07318e292495)]),
    ((745, 0xc0517e19b82d3cdb), [(684, 0x4debfaaf5f22aacd), (700, 0x3bcd544a5ac458f9), (665, 0xac570dd0a05710f0), (642, 0xabc1fee18b4b2a51)]),
    ((756, 0xb233edd8ff874164), [(690, 0x3753de4b593132fd), (708, 0xd4e5aa36d7be42f0), (669, 0x6cc985cace7b65da), (642, 0x734ef93775acae70)]),
    ((743, 0xbc23fbf29702d012), [(663, 0x82a0ffcc9e66ea45), (681, 0xb408c446fa8175b5), (649, 0xb880d0bca07c9013), (642, 0x8e610836835f35cf)]),
    ((756, 0x1a06942caa24dd0f), [(701, 0xcdbfdf176c29cfbf), (716, 0xbd26303a2da2e6bc), (690, 0xa0e6b1428db509c9), (642, 0xc7d6ba0b6622562a)]),
    ((782, 0xffa08233ea5aa0ea), [(718, 0x51ef185085f02332), (732, 0x5de65f04073786eb), (698, 0x6ab6f088ff6c78c0), (642, 0x2e09a3490e323901)]),
    ((783, 0x0cf6e406ab5f7797), [(729, 0xbd87fca22b8def10), (752, 0x4dc638f85ba703d5), (716, 0xac60f011247f1ba0), (642, 0x675b3f890a19fefd)]),
    ((1783, 0xca5ff58ea27a0dbb), [(1431, 0x8860d6e32f6d78cf), (1518, 0x82dca433a1c2970b), (1507, 0x127201d631002ea2), (642, 0x1627434c63fb3926)]),
    ((1944, 0xf1eb62c4e7b7f474), [(1595, 0xbe4628ca8f72e381), (1652, 0x0f8c1bf7b14822c5), (1620, 0xc7365c7e6a737e90), (642, 0xef3cd4d163842fec)]),
    ((2007, 0xf3cd8a5c0231223f), [(1629, 0xf2cc798a6a1b42d2), (1715, 0x3a2249009ffc6c56), (1671, 0x446c0659128391af), (642, 0xb6ac37dd81ec7c8d)]),
    ((2042, 0x223cf373d6c9efb9), [(1716, 0x0f1ca79de6b7da01), (1775, 0xb799077326b8adbb), (1727, 0xff2f2eb03c0c5fb5), (642, 0x622a001b9f978f35)]),
    ((2067, 0xd2f4bbce8b79a35e), [(1738, 0x826cc4bf7db9d355), (1795, 0xbdcd321ae1a13fc1), (1746, 0x274af2a3655060db), (642, 0x2419042cb88674ae)]),
    ((2103, 0x0179191ce02b46c2), [(1801, 0x5b504c0e8803a092), (1861, 0x96ae0b0561257957), (1817, 0xc4b20308b7f91a20), (642, 0x70a3e9c40919cdb2)]),
    ((2121, 0x53785f435e447e22), [(1837, 0xb0e635d4f709560f), (1911, 0xc0a4aec5cc360f67), (1852, 0x62f421142180eec3), (642, 0xda0cd4fa33e6f8cc)]),
    ((2120, 0x20d1e2e9e865ea32), [(1856, 0x8dbc70cc2ae10ac1), (1923, 0xeea291aa8c0524e2), (1876, 0xec60b23fd64b19da), (642, 0xaf3fe56fedc6e731)]),
    ((4545, 0x1f811072b9564db4), [(2903, 0xa61750bd98929a0b), (3190, 0x07e9b50430e3f7d4), (3165, 0x2be3447cc3eebbba), (642, 0xe3fea0b786e2b94b)]),
    ((4951, 0xa8cd3bf9cdbeb1d2), [(3209, 0x0e73b532a983f4f2), (3476, 0x8a652406b1935d57), (3491, 0xc585e7ab422fa051), (642, 0x84031b4019fca4aa)]),
    ((4926, 0xe4e222119f911c08), [(3274, 0x836a7754020ceffc), (3551, 0xb16cbce68a7af6eb), (3635, 0xe9c26af5d1c6a58c), (642, 0xa6ee2567153a0392)]),
    ((4997, 0x7393047b56b6b83c), [(3411, 0x494791d929a34067), (3675, 0xfbe5b87d2694002b), (3715, 0x0c3c5485d8d80e7c), (642, 0xbcfa090b17e93804)]),
    ((5187, 0xd27fd152242167c6), [(3554, 0x4cf96fa3b46da8e1), (3832, 0x63e1281674767f76), (3851, 0xdec194e2644f956d), (642, 0x03a55456bfb18532)]),
    ((5187, 0xb750b9cf0f015eb4), [(3618, 0xb4316d7b9b1fe7e8), (3867, 0x70fd2ab624784153), (3908, 0xbde2795390557739), (642, 0xe81d73e90a734508)]),
    ((5215, 0x99b4e4ebff0a1be9), [(3704, 0xd1fc8cbe5fcc7cd3), (3943, 0x9ff05e6f702dcc79), (4010, 0xaa324a5743a76acb), (642, 0xacc0f7c46be28a82)]),
    ((5202, 0xffadcc7e014b08bf), [(3745, 0xe947519810d36a6e), (3998, 0xf37b17fa9d090dd4), (4028, 0x46a5209f9224e3d0), (642, 0x6df2ef71dc9562ef)]),
    ((1041, 0x0f1b32ffb29b7862), [(1014, 0xbc903627e132c201), (1039, 0xff963f6576a352a1), (1030, 0xb38cbe8097f64da6), (642, 0x42d1ed865825c922)]),
    ((1056, 0xfd89a8899fbcf910), [(1029, 0x87b94383b10158dc), (1040, 0x45bbe9ee2aee5fae), (990, 0xf75063432926f575), (642, 0x4f0173043e11f029)]),
    ((1054, 0x3d84ba9152c741e6), [(1026, 0x6e4fba02253c9362), (1042, 0xdbf7f77fc4881411), (991, 0xcc40b574ca2a1062), (642, 0x15e5e39d26ef9382)]),
    ((1039, 0x616b45f6737d896d), [(1014, 0x62e91cc861db4b36), (1026, 0xb57e7ed773021da4), (1004, 0x9ee2e4f4871ed7d0), (642, 0x00e79fb76391bf99)]),
    ((1033, 0x5ad82853829eb9b2), [(1008, 0x1b5c0af749eda443), (1018, 0x0fece4fa323e4f64), (990, 0x4120bedc5ec46c95), (642, 0x9e79f12f7b8c3874)]),
    ((1036, 0x29463e0299f1f345), [(1010, 0x7d2a2bd5068a7bf3), (1019, 0x8136724def2d8f5a), (994, 0x8a72558aa40d80f0), (642, 0x31be2dae768c5385)]),
    ((1032, 0x3f18349d24e938f8), [(1013, 0x36d6f6472378c800), (1030, 0xc2e905fd87357e55), (1013, 0x247c7de46d1ee369), (642, 0x8d20423645779117)]),
    ((1031, 0xc777b389b396e8d9), [(1011, 0x4ee09336246b838d), (1021, 0xb6d71aab86132dfe), (985, 0x6bea592c84b3e7fb), (642, 0xd7eafd63368c0893)]),
    ((2912, 0x9f37ea10b46add5c), [(2641, 0xad0ea7219b05e232), (2759, 0xefa460f6e9958c8f), (2747, 0x6405e7251d6da9b5), (642, 0x27ac63a9fb558857)]),
    ((2903, 0x8184d62e65ea0b94), [(2640, 0x3188b6768cf1787b), (2727, 0x64d6181666b01b61), (2684, 0x796193dbb2cd3c79), (642, 0x7e252f848fbf8d40)]),
    ((2933, 0x83492a7cc81404a4), [(2652, 0x698e61d8de22499f), (2750, 0x7c56d134ac656f7d), (2650, 0xe320a83354cd9006), (642, 0xba585f970c94067a)]),
    ((2926, 0x927ba9d730025232), [(2641, 0xa1f5762036a654a2), (2750, 0x46a949f29f2c8171), (2666, 0x932062c53d651a22), (642, 0x52ac21af2df9016b)]),
    ((2890, 0xcb1bbd0756bea3a8), [(2638, 0xb8f00ed4784af67f), (2723, 0x24c99a655f087360), (2671, 0x8584312650674879), (642, 0x9946fe0cc6c41e3c)]),
    ((2880, 0xf270f4699bc79f20), [(2647, 0x4dea52b1dde1b459), (2728, 0x1a197157c747da0e), (2673, 0x198367b1e516aedd), (642, 0x5bb9b3d7b45545ea)]),
    ((2871, 0xce5efde49c637383), [(2638, 0x99c2aca16d6c61d6), (2706, 0x738c5a6e100c4e62), (2646, 0xd1c072a2ef0dbf6a), (642, 0x1df0f2ccda60c83b)]),
    ((2865, 0xc23a151b1f0e02eb), [(2635, 0x56a9acf50e07ac00), (2711, 0xfad735c96cea264f), (2649, 0xd1016ea79bb80376), (642, 0xf6aa21f0491730aa)]),
    ((6677, 0x39e4a6b0efb41eff), [(5015, 0xab3b5aba4c3053ef), (5356, 0x0ad06bc13b492310), (5328, 0xf5e47d0a379d32a2), (642, 0x02aa2f3cc2f85f29)]),
    ((6728, 0x06de9f667a3808c2), [(5034, 0xc5413995fd4231b9), (5333, 0x1f06d34068d911ce), (5386, 0x443f8801a6dc6f86), (642, 0xacb936a21d786fb8)]),
    ((6705, 0x73a3f9a65423aea9), [(5033, 0x87d57837429a8ac3), (5339, 0xfa7cf0271c8eb312), (5378, 0x30b56e3d202fe2c9), (642, 0xcbf5199293a90822)]),
    ((6732, 0x0994fec4ec46c7f8), [(5033, 0xb5fa1d058a80bd59), (5299, 0x10afb2440351be0a), (5389, 0x26f47701cf7368b5), (642, 0x9f26e06749a5ac92)]),
    ((6710, 0x90b91012624e9e05), [(5035, 0xe35b9d1fae35c63f), (5330, 0xc250dd2f61677c30), (5378, 0x53d091c6a9fdb360), (642, 0xe30d77885f9893c7)]),
    ((6730, 0xbcfe0c086bca63e7), [(5026, 0xd8956f308c765b33), (5309, 0xf179ed3966002dde), (5376, 0xf3716b59316f9ad9), (642, 0xe90a2b37e98b0188)]),
    ((6716, 0xdd20972499788571), [(5028, 0x1496b9d84eafde9f), (5313, 0x057b7290b26851b3), (5392, 0xef35dbc983fdf13f), (642, 0x66d166f9220ff9ed)]),
    ((6725, 0x72258c8364ae26e9), [(5036, 0xf9196c9f440cf0c8), (5376, 0x7034f7c17d04d1d5), (5410, 0xea50f13c9307ff9e), (642, 0xfb697db8ec7f54d1)]),
    ((804, 0x71e5962548782eba), [(791, 0x2f1bbbf6fd62c4dc), (804, 0xf598dbc725158334), (799, 0x9a6639000b1debd3), (642, 0x80119b7aa0211ba2)]),
    ((790, 0xf539a3843519e08d), [(775, 0x229595f596b51e46), (784, 0x17db29b525f76ef4), (763, 0xf9b9dd4c6694091d), (642, 0xaa293239214d2a83)]),
    ((782, 0x2ba412b47522189a), [(773, 0x8fadb53eea610ed0), (778, 0x92c59bc5131784ab), (764, 0x310c33fdbe8211cf), (642, 0x9e3eb5b10951b86a)]),
    ((799, 0x3f664ea740130017), [(781, 0x9cabafc71ef261df), (794, 0xe932a93adde66117), (778, 0x6794f4b9e4f0eb2b), (642, 0xfb0b51550f8a6455)]),
    ((801, 0x61b686ad6a90726b), [(787, 0xe36f18d62c0f0d1e), (793, 0xa84b3038b4d55f01), (760, 0x43aab2002f2da462), (642, 0x41c5efa0bff04519)]),
    ((800, 0xa30a53cb155b586e), [(785, 0xd05c349ae38a381d), (796, 0x7818063eba8e1bb3), (755, 0x487b28e749579bce), (642, 0x890045fac89b1bd6)]),
    ((822, 0xaf7545824a553fb4), [(802, 0x29965ae033b9cb11), (809, 0xeec3a0374d2dadd4), (784, 0xf3f53814e56abda0), (642, 0x8e10bf66b27deb2b)]),
    ((822, 0xeb1f5fbb7d08ec89), [(807, 0x254de72f1df3ab28), (817, 0x5acab920000a4228), (791, 0xa23d567dec3d7f10), (642, 0x6c7d8151b47f03d2)]),
    ((1840, 0xc2f69744ad9a05b7), [(1689, 0xf2f85c4353362f42), (1740, 0xb52edd4e930b252b), (1730, 0x9c8b93dab06a9c4c), (642, 0x4ab701dd8b140d1e)]),
    ((1848, 0xad972d5d7dd0549e), [(1688, 0x77eb61a3095e43dd), (1719, 0x3872b0ce2135f3e3), (1696, 0xd1e5baf7bc5950b9), (642, 0xc4438a66ae2a8a21)]),
    ((1853, 0xa785cd27e3955ae3), [(1684, 0x60803ca65c63e4d5), (1734, 0xeece1b1d8c2790ca), (1708, 0x57493c48ace98e2c), (642, 0xec5b47b04066d155)]),
    ((1854, 0x0b15efb4cd34af3c), [(1687, 0x8dfe5648345618f0), (1724, 0x0207803b21f4aa43), (1683, 0x0fd7904aca9fa5e7), (642, 0x82b5f5c9be64f22f)]),
    ((1911, 0x33c8fb867d70ef10), [(1718, 0x2c07f0c1775036df), (1755, 0x408540d29d604dd8), (1711, 0xef0ea25fff63ea6f), (642, 0xeb0599c6dde7f827)]),
    ((1946, 0x6bf8eaec674b5cd2), [(1738, 0x7744a656bfc333d7), (1797, 0x14239b370b73bb9e), (1747, 0x3dc4f176771e5c22), (642, 0x64c4c33aa74cfd6b)]),
    ((1957, 0xae9bbb233961d47b), [(1752, 0x32b7e1b8e101656e), (1786, 0xa45c612e22158c44), (1744, 0x497a5a8375b31ce5), (642, 0x0483a5dea6934234)]),
    ((1903, 0x58f5bf2225db8c0a), [(1725, 0x9864e5a53db2d02c), (1756, 0xe69ebaaa5bf8c628), (1712, 0x530482766dc065ff), (642, 0x83ab4c5cb00364c3)]),
    ((4478, 0x66cb49c04f23386f), [(3732, 0xfa89dedb9d18d5a0), (4000, 0x2d858132133d1193), (3969, 0xdbf1cec6c05829e8), (642, 0x52a65a67f9c4d211)]),
    ((4479, 0xb951b2e7d118ae95), [(3714, 0x3d5268d8b0fca71e), (3908, 0x8f1a34b995d43ab9), (3870, 0x22e632a7bcf21b46), (642, 0x6a476e48cb033b15)]),
    ((4423, 0x19a4d23857f5ac3c), [(3695, 0xb22c3a75c94005be), (3873, 0x5679a2dbd5776468), (3828, 0x113a3aead3764f61), (642, 0x369b6db338bb166e)]),
    ((4405, 0x55fff453ab4c2fa1), [(3684, 0xa6bbae094a3ccfda), (3848, 0x6ac9490b0e9cc43c), (3816, 0x58f2b69022c20e14), (642, 0x010576eb0f7d2509)]),
    ((4502, 0xabaa9edf6880aeb9), [(3723, 0x656f58d42a0f66dd), (3920, 0xea150dfc9f5b0ca6), (3840, 0x7002571395a044fc), (642, 0xa9ac88e7cff5bcba)]),
    ((4566, 0xbd43c5db75019c4a), [(3754, 0x0d2940a854cfbbae), (3953, 0x2dbc628c4423d933), (3915, 0xf88f1852e59bfd5f), (642, 0x7f368214f9f8e8a4)]),
    ((4579, 0x44e6a0364b5c5855), [(3767, 0x3f66279d985bbdf9), (3990, 0x51c25ae19d805bf7), (3916, 0x9db4a96c6fea712c), (642, 0x8c3a00e694436b0a)]),
    ((4576, 0x811ccb8a42362c88), [(3762, 0xf22df05bb5d9cc62), (3940, 0x3cf9303d2fd53dfc), (3881, 0x594e4abdc8449ff1), (642, 0x5ba4b8be57c1f1a3)]),
];

#[test]
fn stage_streams_match_the_recorded_table_on_every_backend() {
    let inputs = inputs();
    assert_eq!(inputs.len(), GOLDEN.len(), "case count");
    for backend in gld_kernels::available_backends() {
        gld_kernels::force(backend).expect("available");
        let rows = record(&inputs);
        gld_kernels::clear_force();
        let diffs: Vec<String> = rows
            .iter()
            .zip(GOLDEN)
            .enumerate()
            .filter(|(_, (got, want))| got != want)
            .map(|(case, (got, want))| format!("case {case}: got {got:?}, recorded {want:?}"))
            .collect();
        assert!(
            diffs.is_empty(),
            "backend {backend}: {} of {} cases changed bytes\n{}",
            diffs.len(),
            rows.len(),
            diffs.join("\n")
        );
    }
}
