/* Standard normal draws, the package's one normal generator (see
   oscillator.standard_normal).

   normal_fill(s, n, scale, out) writes the n draws that numpy's
   Generator.standard_normal makes from a PCG64 bit generator, each times
   scale, and advances its state past them, as numpy does.  s holds the 128-bit state and
   increment as four 64-bit words, high word first: {state_hi, state_lo,
   inc_hi, inc_lo}; the state is written back into s[0..1].

   The generator is PCG64 XSL-RR (O'Neill 2014): each step multiplies the
   state by the 128-bit LCG multiplier and adds the increment, and its
   output is the xor of the state's two halves rotated right by its top six
   bits; a double is the top 53 bits of an output times 2^-53.  The draw is
   numpy's random_standard_normal, the 256-layer ziggurat of Marsaglia and
   Tsang (2000), transcribed operation by operation with numpy's own
   tables: the low 8 bits of an output pick the layer, the next its sign,
   the next 52 the magnitude.  The wedge and tail tests call the libm exp
   and log1p numpy calls.  _native.build compiles this file with
   -ffp-contract=off: fusing the wedge test's (fi[i-1] - fi[i]) * u + fi[i]
   into one FMA would accept other draws and so change the whole stream
   after them.  The draws are numpy's bit for bit on the same libm.

   synth_phase(s, n, sigma0, sigma1, sigma2, scale, out, phase) synthesizes
   an n-sample clock from the same stream in one pass, each sample times
   scale (see oscillator.synthesize_phase). */

#include <math.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) + 4865540595714422341ULL)
#define ZIGGURAT_NOR_R 3.6541528853610087963519472518
#define ZIGGURAT_NOR_INV_R 0.27366123732975827203338247596

/* numpy's ziggurat tables, copied from the .rodata of distributions.c in
   numpy 2.4.6's libnpyrandom.a: per layer, the magnitude bound below which
   a box draw is accepted (ki), the scale from magnitude bits to x (wi) and
   the density at the layer's edge (fi) */
static const uint64_t ki_double[256] = {
    0x000ef33d8025ef6aULL, 0x0000000000000000ULL, 0x000c08be98fbc6a8ULL, 0x000da354fabd8142ULL,
    0x000e51f67ec1eeeaULL, 0x000eb255e9d3f77eULL, 0x000eef4b817ecab9ULL, 0x000f19470afa44aaULL,
    0x000f37ed61ffcb18ULL, 0x000f4f469561255cULL, 0x000f61a5e41ba396ULL, 0x000f707a755396a4ULL,
    0x000f7cb2ec28449aULL, 0x000f86f10c6357d3ULL, 0x000f8fa6578325deULL, 0x000f9724c74dd0daULL,
    0x000f9da907dbf509ULL, 0x000fa360f581fa74ULL, 0x000fa86fde5b4bf8ULL, 0x000facf160d354dcULL,
    0x000fb0fb6718b90fULL, 0x000fb49f8d5374c6ULL, 0x000fb7ec2366fe77ULL, 0x000fbaece9a1e50eULL,
    0x000fbdab9d040bedULL, 0x000fc03060ff6c57ULL, 0x000fc2821037a248ULL, 0x000fc4a67ae25bd1ULL,
    0x000fc6a2977aee31ULL, 0x000fc87aa92896a4ULL, 0x000fca325e4bde85ULL, 0x000fcbcce902231aULL,
    0x000fcd4d12f839c4ULL, 0x000fceb54d8fec99ULL, 0x000fd007bf1dc930ULL, 0x000fd1464dd6c4e6ULL,
    0x000fd272a8e2f450ULL, 0x000fd38e4ff0c91eULL, 0x000fd49a9990b478ULL, 0x000fd598b8920f53ULL,
    0x000fd689c08e99ecULL, 0x000fd76ea9c8e832ULL, 0x000fd848547b08e8ULL, 0x000fd9178bad2c8cULL,
    0x000fd9dd07a7add2ULL, 0x000fda9970105e8cULL, 0x000fdb4d5dc02e20ULL, 0x000fdbf95c5bfcd0ULL,
    0x000fdc9debb99a7dULL, 0x000fdd3b8118729dULL, 0x000fddd288342f90ULL, 0x000fde6364369f64ULL,
    0x000fdeee708d514eULL, 0x000fdf7401a6b42eULL, 0x000fdff46599ed40ULL, 0x000fe06fe4bc24f2ULL,
    0x000fe0e6c225a258ULL, 0x000fe1593c28b84cULL, 0x000fe1c78cbc3f99ULL, 0x000fe231e9db1caaULL,
    0x000fe29885da1b91ULL, 0x000fe2fb8fb54186ULL, 0x000fe35b33558d4aULL, 0x000fe3b799d0002aULL,
    0x000fe410e99ead7fULL, 0x000fe46746d47734ULL, 0x000fe4bad34c095cULL, 0x000fe50baed29524ULL,
    0x000fe559f74ebc78ULL, 0x000fe5a5c8e41212ULL, 0x000fe5ef3e138689ULL, 0x000fe6366fd91078ULL,
    0x000fe67b75c6d578ULL, 0x000fe6be661e11aaULL, 0x000fe6ff55e5f4f2ULL, 0x000fe73e5900a702ULL,
    0x000fe77b823e9e39ULL, 0x000fe7b6e37070a2ULL, 0x000fe7f08d774243ULL, 0x000fe8289053f08cULL,
    0x000fe85efb35173aULL, 0x000fe893dc840864ULL, 0x000fe8c741f0cebcULL, 0x000fe8f9387d4ef6ULL,
    0x000fe929cc879b1dULL, 0x000fe95909d388eaULL, 0x000fe986fb939aa2ULL, 0x000fe9b3ac714866ULL,
    0x000fe9df2694b6d5ULL, 0x000fea0973abe67cULL, 0x000fea329cf166a4ULL, 0x000fea5aab32952cULL,
    0x000fea81a6d5741aULL, 0x000feaa797de1cf0ULL, 0x000feacc85f3d920ULL, 0x000feaf07865e63cULL,
    0x000feb13762fec13ULL, 0x000feb3585fe2a4aULL, 0x000feb56ae3162b4ULL, 0x000feb76f4e284faULL,
    0x000feb965fe62014ULL, 0x000febb4f4cf9d7cULL, 0x000febd2b8f449d0ULL, 0x000febefb16e2e3eULL,
    0x000fec0be31ebde8ULL, 0x000fec2752b15a15ULL, 0x000fec42049dafd3ULL, 0x000fec5bfd29f196ULL,
    0x000fec75406ceef4ULL, 0x000fec8dd2500cb4ULL, 0x000feca5b6911f12ULL, 0x000fecbcf0c427feULL,
    0x000fecd38454fb15ULL, 0x000fece97488c8b3ULL, 0x000fecfec47f91b7ULL, 0x000fed1377358528ULL,
    0x000fed278f844903ULL, 0x000fed3b10242f4cULL, 0x000fed4dfbad586eULL, 0x000fed605498c3ddULL,
    0x000fed721d414fe8ULL, 0x000fed8357e4a982ULL, 0x000fed9406a42cc8ULL, 0x000feda42b85b704ULL,
    0x000fedb3c8746ab4ULL, 0x000fedc2df416652ULL, 0x000fedd171a46e52ULL, 0x000feddf813c8ad3ULL,
    0x000feded0f909980ULL, 0x000fedfa1e0fd414ULL, 0x000fee06ae124bc4ULL, 0x000fee12c0d95a06ULL,
    0x000fee1e579006e0ULL, 0x000fee29734b6524ULL, 0x000fee34150ae4bcULL, 0x000fee3e3db89b3cULL,
    0x000fee47ee2982f4ULL, 0x000fee51271db086ULL, 0x000fee59e9407f41ULL, 0x000fee623528b42eULL,
    0x000fee6a0b5897f1ULL, 0x000fee716c3e077aULL, 0x000fee7858327b82ULL, 0x000fee7ecf7b06baULL,
    0x000fee84d2484ab2ULL, 0x000fee8a60b66343ULL, 0x000fee8f7accc851ULL, 0x000fee94207e25daULL,
    0x000fee9851a829eaULL, 0x000fee9c0e13485cULL, 0x000fee9f557273f4ULL, 0x000feea22762ccaeULL,
    0x000feea4836b42acULL, 0x000feea668fc2d71ULL, 0x000feea7d76ed6faULL, 0x000feea8ce04fa0aULL,
    0x000feea94be8333bULL, 0x000feea950296410ULL, 0x000feea8d9c0075eULL, 0x000feea7e7897654ULL,
    0x000feea678481d24ULL, 0x000feea48aa29e83ULL, 0x000feea21d22e4daULL, 0x000fee9f2e352024ULL,
    0x000fee9bbc26af2eULL, 0x000fee97c524f2e4ULL, 0x000fee93473c0a3aULL, 0x000fee8e40557516ULL,
    0x000fee88ae369c7aULL, 0x000fee828e7f3dfdULL, 0x000fee7bdea7b888ULL, 0x000fee749bff37ffULL,
    0x000fee6cc3a9bd5eULL, 0x000fee64529e007eULL, 0x000fee5b45a32888ULL, 0x000fee51994e57b6ULL,
    0x000fee474a0006cfULL, 0x000fee3c53e12c50ULL, 0x000fee30b2e02ad8ULL, 0x000fee2462ad8205ULL,
    0x000fee175eb83c5aULL, 0x000fee09a22a1447ULL, 0x000fedfb27e349ccULL, 0x000fedebea76216cULL,
    0x000feddbe422047eULL, 0x000fedcb0ece39d3ULL, 0x000fedb964042cf4ULL, 0x000feda6dce938c9ULL,
    0x000fed937237e98dULL, 0x000fed7f1c38a836ULL, 0x000fed69d2b9c02bULL, 0x000fed538d06ae00ULL,
    0x000fed3c41dea422ULL, 0x000fed23e76a2fd8ULL, 0x000fed0a732fe644ULL, 0x000fecefda07fe34ULL,
    0x000fecd4100eb7b8ULL, 0x000fecb708956eb4ULL, 0x000fec98b61230c1ULL, 0x000fec790a0da978ULL,
    0x000fec57f50f31feULL, 0x000fec356686c962ULL, 0x000fec114cb4b335ULL, 0x000febeb948e6fd0ULL,
    0x000febc429a0b692ULL, 0x000feb9af5ee0cdcULL, 0x000feb6fe1c98542ULL, 0x000feb42d3ad1f9eULL,
    0x000feb13b00b2d4bULL, 0x000feae2591a02e9ULL, 0x000feaaeae992257ULL, 0x000fea788d8ee326ULL,
    0x000fea3fcffd73e5ULL, 0x000fea044c8dd9f6ULL, 0x000fe9c5d62f563bULL, 0x000fe9843ba947a4ULL,
    0x000fe93f471d4728ULL, 0x000fe8f6bd76c5d6ULL, 0x000fe8aa5dc4e8e6ULL, 0x000fe859e07ab1eaULL,
    0x000fe804f690a940ULL, 0x000fe7ab488233c0ULL, 0x000fe74c751f6aa5ULL, 0x000fe6e8102aa202ULL,
    0x000fe67da0b6abd8ULL, 0x000fe60c9f38307eULL, 0x000fe5947338f742ULL, 0x000fe51470977280ULL,
    0x000fe48bd436f458ULL, 0x000fe3f9bffd1e37ULL, 0x000fe35d35eeb19cULL, 0x000fe2b5122fe4feULL,
    0x000fe20003995557ULL, 0x000fe13c82788314ULL, 0x000fe068c4ee67b0ULL, 0x000fdf82b02b71aaULL,
    0x000fde87c57efeaaULL, 0x000fdd7509c63bfdULL, 0x000fdc46e529bf13ULL, 0x000fdaf8f82e0282ULL,
    0x000fd985e1b2ba75ULL, 0x000fd7e6ef48cf04ULL, 0x000fd613adbd650bULL, 0x000fd40149e2f012ULL,
    0x000fd1a1a7b4c7acULL, 0x000fcee204761f9eULL, 0x000fcba8d85e11b2ULL, 0x000fc7d26ecd2d22ULL,
    0x000fc32b2f1e22edULL, 0x000fbd6581c0b83aULL, 0x000fb606c4005434ULL, 0x000fac40582a2874ULL,
    0x000f9e971e014598ULL, 0x000f89fa48a41dfcULL, 0x000f66c5f7f0302cULL, 0x000f1a5a4b331c4aULL,
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51,
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10,
};

static inline uint64_t next64(u128 *state, u128 inc)
{
    *state = *state * PCG_MULT + inc;
    uint64_t v = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    return (v >> rot) | (v << ((-rot) & 63));
}

static inline double next_double(u128 *state, u128 inc)
{
    return (double)(next64(state, inc) >> 11) * (1.0 / 9007199254740992.0);
}

/* The box draw of numpy's loop from the output r: layer r & 0xff, sign
   bit 8, magnitude bits 9..60 into *rabs.  numpy's `if (sign) x = -x` is
   an xor of the sign bit here: the same bits, -0.0 included, with no
   branch on a random bit. */
static inline double box(uint64_t r, int idx, uint64_t *rabs)
{
    *rabs = (r >> 9) & 0x000fffffffffffffULL;
    /* rabs < 2^52 converts exactly, and through int64 in one instruction */
    double x = (double)(int64_t)*rabs * wi_double[idx];
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= ((r >> 8) & 1) << 63;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* The rest of numpy's loop once a box draw x of layer idx is outside the
   layer's box (0.7% of draws): the tail of layer 0, or the wedge test,
   then new box draws until one is accepted.  Kept out of line, so that the
   fill loop's state stays in registers. */
static __attribute__((noinline)) double rejected(u128 *state, u128 inc, int idx,
                                                  uint64_t rabs, double x)
{
    for (;;) {
        if (idx == 0) {
            for (;;) {
                /* 1 - U, as numpy draws it, so log1p never sees -1 */
                double xx = -ZIGGURAT_NOR_INV_R * log1p(-next_double(state, inc));
                double yy = -log1p(-next_double(state, inc));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ZIGGURAT_NOR_R + xx)
                                               : ZIGGURAT_NOR_R + xx;
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * next_double(state, inc)
                + fi_double[idx] < exp(-0.5 * x * x))
            return x;
        uint64_t r = next64(state, inc);
        idx = r & 0xff;
        x = box(r, idx, &rabs);
        if (rabs < ki_double[idx])
            return x;
    }
}

/* One draw of numpy's loop from the state in *state. */
static inline double normal(u128 *state, u128 inc)
{
    uint64_t r = next64(state, inc);
    int idx = r & 0xff;
    uint64_t rabs;
    double x = box(r, idx, &rabs);
    if (rabs < ki_double[idx])
        return x;  /* 99.3% of draws */
    /* a copy, so that no pointer to the caller's state escapes its loop */
    u128 rest = *state;
    x = rejected(&rest, inc, idx, rabs, x);
    *state = rest;
    return x;
}

void normal_fill(uint64_t *s, int64_t n, double scale, double *out)
{
    u128 state = (u128)s[0] << 64 | s[1];
    u128 inc = (u128)s[2] << 64 | s[3];
    for (int64_t i = 0; i < n; i++)
        out[i] = normal(&state, inc) * scale;
    s[0] = (uint64_t)(state >> 64);
    s[1] = (uint64_t)state;
}

/* The two-state clock of oscillator.synthesize_phase: g0 into out, g1 into
   phase, then per sample one g2 draw and both running sums, each IEEE
   operation numpy's, in numpy's order:

       freq = cumsum(g2 * sigma2)
       ph   = cumsum(g1 * sigma1 + freq)
       out  = g0 * sigma0 + ph

   np.cumsum copies its first element rather than adding it to 0.0, and
   0.0 + -0.0 is +0.0, so each sum starts from its first term.  phase is
   scratch: it holds g1 on return. */
void synth_phase(uint64_t *s, int64_t n, double sigma0, double sigma1, double sigma2,
                 double scale, double *out, double *phase)
{
    normal_fill(s, n, 1.0, out);
    normal_fill(s, n, 1.0, phase);
    u128 state = (u128)s[0] << 64 | s[1];
    u128 inc = (u128)s[2] << 64 | s[3];
    double freq = 0.0, ph = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double df = normal(&state, inc) * sigma2;
        freq = i ? freq + df : df;
        double dp = phase[i] * sigma1 + freq;
        ph = i ? ph + dp : dp;
        out[i] = (out[i] * sigma0 + ph) * scale;
    }
    s[0] = (uint64_t)(state >> 64);
    s[1] = (uint64_t)state;
}
