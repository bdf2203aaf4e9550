"""One-boundary forms F_1..F_15 and the series of every farther one, correctly rounded.

Generated by ``python tests/exact_one_boundary.py --write`` from the exact
forms and Taylor coefficients of that script; do not edit.  Each line of
the string is one row of six upper-triangle entries (LL, LS, LR, SS, SR,
RR), each the float nearest its exact value, written with ``float.hex``:
M_inf, then F_1..F_15, then k! c_k / (2 sqrt2 pi) for k = 1..14, so that
F_m ~ M_inf + sum_k SERIES[k - 1] x^(k + 1) with x = 1/(2m - 1).
"""

ROWS = tuple(map(float.fromhex, """
0x1.913afacab41f5p-2 -0x1.f74e7592e75b2p-3 -0x1.e1d305edbec28p-7 0x1.2b27800280e37p-2 0x1.5c138a6315172p-4 0x1.f476eb43d95f8p-5
0x1.b302f2a60b87ap-2 -0x1.267e86acfa3c3p-2 0x0.0p+0 0x1.0d0a4fa3a4f74p-1 0x1.52ac1d6238f36p-2 0x1.56a9f14ee3865p-1
0x1.98c9efc1d4295p-2 -0x1.fdc540387cf70p-3 -0x1.16ecfe3ed6791p-8 0x1.4732ff3bec2f2p-2 0x1.8397fae0589c1p-4 0x1.815b550f4a511p-4
0x1.947e17838342ap-2 -0x1.f8c9944fb7993p-3 -0x1.54b86d5f55ea3p-7 0x1.34a3f6edbfa64p-2 0x1.61b4fd6616685p-4 0x1.1877497e6cd7cp-4
0x1.930ca92054804p-2 -0x1.f7df0a6079c05p-3 -0x1.980cc7c7b5bf0p-7 0x1.2fec0648e66fbp-2 0x1.5dd53d8e4dd19p-4 0x1.0747e885293d2p-4
0x1.9263e4ad3d17dp-2 -0x1.f794ad407b2ebp-3 -0x1.b4d17ca9a34b7p-7 0x1.2e05c322ba7b9p-2 0x1.5cd8a3ee1c40ep-4 0x1.01822ef86e339p-4
0x1.9208c22e53bebp-2 -0x1.f775c8d3f2185p-3 -0x1.c393913f12262p-7 0x1.2d11b54bd59cap-2 0x1.5c7b28ded24f0p-4 0x1.fdbe3a582123cp-5
0x1.91d1fc1735bf6p-2 -0x1.f766ad157f1f3p-3 -0x1.cc1ea49a05f96p-7 0x1.2c85f1a0b3abap-2 0x1.5c50a78c218dcp-4 0x1.fae52660d65adp-5
0x1.91ae812b7bc5bp-2 -0x1.f75e6bd33cb36p-3 -0x1.d17fe5229936ap-7 0x1.2c2e7944bae0cp-2 0x1.5c3a93b9de59fp-4 0x1.f92ef5a7e6603p-5
0x1.919636058d9f2p-2 -0x1.f759884798e49p-3 -0x1.d51a75e0b6399p-7 0x1.2bf41be196f5ep-2 0x1.5c2dfb458e518p-4 0x1.f8131e4a1692ep-5
0x1.9184d97fdbd06p-2 -0x1.f756742478620p-3 -0x1.d7a2582b25cacp-7 0x1.2bcb3a8ff2536p-2 0x1.5c26464b56a6cp-4 0x1.f750c51aa55dfp-5
0x1.91780330beae4p-2 -0x1.f7546b393f96ep-3 -0x1.d97a9c74cac1ep-7 0x1.2bad7c1b4678dp-2 0x1.5c214bb49ee3fp-4 0x1.f6c5e0ed16e85p-5
0x1.916e40e4d1b0dp-2 -0x1.f753052d61adbp-3 -0x1.dadd681285047p-7 0x1.2b972b6bb0ab8p-2 0x1.5c1defc5fa6d0p-4 0x1.f65f2e742dd74p-5
0x1.9166a95a7ef9bp-2 -0x1.f75206fd842ccp-3 -0x1.dbeeac4991e16p-7 0x1.2b85fff7503b7p-2 0x1.5c1b96a280e22p-4 0x1.f6111c14c5eb7p-5
0x1.9160a3a98e824p-2 -0x1.f7514d90997c8p-3 -0x1.dcc598088fdd2p-7 0x1.2b7881bb99ec2p-2 0x1.5c19e5c991c34p-4 0x1.f5d45fc23032ap-5
0x1.915bc8317e976p-2 -0x1.f750c3215a1b1p-3 -0x1.dd71aa1f6b1b3p-7 0x1.2b6db5ecfb537p-2 0x1.5c18a6364f6d1p-4 0x1.f5a4323aac775p-5
0x1.ccf6429be6621p-4 0x0.0p+0 0x1.ccf6429be6621p-4 0x1.ccf6429be6621p-3 0x0.0p+0 0x1.ccf6429be6621p-4
-0x1.ccf6429be6621p-3 -0x1.ccf6429be6621p-4 0x0.0p+0 0x0.0p+0 0x1.ccf6429be6621p-4 0x1.ccf6429be6621p-3
0x1.a1bf2c5d48c8ep-2 0x1.59b8b1f4ecc99p-3 -0x1.93577a486995dp-4 0x1.2019e9a16ffd5p-3 0x1.59b8b1f4ecc99p-3 0x1.a1bf2c5d48c8ep-2
-0x1.7688161eab2fbp-1 -0x1.7688161eab2fbp-2 0x0.0p+0 0x0.0p+0 0x1.7688161eab2fbp-2 0x1.7688161eab2fbp-1
0x1.752e5d6cb642ep+0 0x1.441d26d59dfcfp-1 -0x1.c3f5734edae22p-2 0x1.8889b4b8c22f8p-2 0x1.441d26d59dfcfp-1 0x1.752e5d6cb642ep+0
-0x1.9db202476a028p+1 -0x1.9db202476a028p+0 0x0.0p+0 0x0.0p+0 0x1.9db202476a028p+0 0x1.9db202476a028p+1
0x1.11c26c34e8455p+3 0x1.d19379a695e07p+1 -0x1.2db0bc20208bfp+1 0x1.47c57b0ceaa8fp+1 0x1.d19379a695e07p+1 0x1.11c26c34e8455p+3
-0x1.9d0c59c779fbcp+4 -0x1.9d0c59c779fbcp+3 0x0.0p+0 0x0.0p+0 0x1.9d0c59c779fbcp+3 0x1.9d0c59c779fbcp+4
0x1.71eaaca90c684p+6 0x1.34a842f0d8beep+5 -0x1.7446df00e2d80p+4 0x1.ea134dc19d4b6p+4 0x1.34a842f0d8beep+5 0x1.71eaaca90c684p+6
-0x1.6ca867f927438p+8 -0x1.6ca867f927438p+7 0x0.0p+0 0x0.0p+0 0x1.6ca867f927438p+7 0x1.6ca867f927438p+8
0x1.9d9e4e16868fep+10 0x1.558eb0d3cda9bp+9 -0x1.8adeec9cb7badp+8 0x1.203e750ae398ap+9 0x1.558eb0d3cda9bp+9 0x1.9d9e4e16868fep+10
-0x1.f4add85a78e51p+12 -0x1.f4add85a78e51p+11 0x0.0p+0 0x0.0p+0 0x1.f4add85a78e51p+11 0x1.f4add85a78e51p+12
0x1.55b20b0795b62p+15 0x1.1875013073becp+14 -0x1.3bf5db045fa02p+13 0x1.e9e84eb90fbadp+13 0x1.1875013073becp+14 0x1.55b20b0795b62p+15
-0x1.e886c05ccb440p+17 -0x1.e886c05ccb440p+16 0x0.0p+0 0x0.0p+0 0x1.e886c05ccb440p+16 0x1.e886c05ccb440p+17
""".split()))
M_INF = ROWS[:6]
FORMS = tuple(ROWS[i:i + 6] for i in range(6, 96, 6))
SERIES = tuple(ROWS[i:i + 6] for i in range(96, 180, 6))
