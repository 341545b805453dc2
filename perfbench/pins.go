package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// pin is a batch result's deterministic fingerprint for one seed: the
// solver is a pure function of (edge sequence, options), so these repeat
// exactly on every machine and every run.
type pin struct {
	weight    float64
	passes    int
	rounds    int
	peakWords int
}

// pins holds the full-size results for seeds 0–127 and 301–310; a run on
// one of these seeds fails when its result moves. A run on any other seed
// says so on stdout and stderr. After a deliberate change to the solvers'
// results, regenerate the entries with -pin (see printPins).
var pins = map[string]map[uint64]pin{
	"solve-ooc": {
		0:   {weight: 7799.814126541782, passes: 45, rounds: 21, peakWords: 62384},
		1:   {weight: 7806.344818815496, passes: 45, rounds: 21, peakWords: 60508},
		2:   {weight: 7798.654714109411, passes: 45, rounds: 21, peakWords: 62385},
		3:   {weight: 7769.837280492949, passes: 45, rounds: 21, peakWords: 61273},
		4:   {weight: 7801.246498324789, passes: 45, rounds: 21, peakWords: 61816},
		5:   {weight: 7767.6023100924185, passes: 45, rounds: 21, peakWords: 60574},
		6:   {weight: 7820.608835352733, passes: 45, rounds: 21, peakWords: 61468},
		7:   {weight: 7810.342551213222, passes: 45, rounds: 21, peakWords: 62671},
		8:   {weight: 7832.857436332163, passes: 45, rounds: 21, peakWords: 62629},
		9:   {weight: 7796.224868853434, passes: 45, rounds: 21, peakWords: 61033},
		10:  {weight: 7798.720097224126, passes: 45, rounds: 21, peakWords: 60582},
		11:  {weight: 7794.912365540847, passes: 45, rounds: 21, peakWords: 62327},
		12:  {weight: 7815.387151330129, passes: 45, rounds: 21, peakWords: 62542},
		13:  {weight: 7814.106495305741, passes: 45, rounds: 21, peakWords: 62218},
		14:  {weight: 7810.430486369897, passes: 45, rounds: 21, peakWords: 62054},
		15:  {weight: 7785.956511727745, passes: 45, rounds: 21, peakWords: 60823},
		16:  {weight: 7818.442846448049, passes: 45, rounds: 21, peakWords: 62083},
		17:  {weight: 7839.455655450314, passes: 45, rounds: 21, peakWords: 62446},
		18:  {weight: 7792.289359431627, passes: 45, rounds: 21, peakWords: 59927},
		19:  {weight: 7780.448616260628, passes: 45, rounds: 21, peakWords: 62173},
		20:  {weight: 7803.064267503187, passes: 45, rounds: 21, peakWords: 61827},
		21:  {weight: 7807.209381344046, passes: 45, rounds: 21, peakWords: 62665},
		22:  {weight: 7788.773321006752, passes: 45, rounds: 21, peakWords: 61080},
		23:  {weight: 7839.289986172594, passes: 45, rounds: 21, peakWords: 63433},
		24:  {weight: 7783.172029211777, passes: 45, rounds: 21, peakWords: 61589},
		25:  {weight: 7798.611079756945, passes: 45, rounds: 21, peakWords: 61309},
		26:  {weight: 7800.780500268227, passes: 45, rounds: 21, peakWords: 62138},
		27:  {weight: 7779.737358523016, passes: 45, rounds: 21, peakWords: 61098},
		28:  {weight: 7801.50128563107, passes: 45, rounds: 21, peakWords: 60970},
		29:  {weight: 7810.22041171942, passes: 45, rounds: 21, peakWords: 59453},
		30:  {weight: 7796.144194296476, passes: 45, rounds: 21, peakWords: 60836},
		31:  {weight: 7769.005610253833, passes: 45, rounds: 21, peakWords: 61965},
		32:  {weight: 7804.879697516311, passes: 45, rounds: 21, peakWords: 60999},
		33:  {weight: 7829.6788840485015, passes: 45, rounds: 21, peakWords: 63606},
		34:  {weight: 7820.3653520938105, passes: 45, rounds: 21, peakWords: 62077},
		35:  {weight: 7806.663878472911, passes: 45, rounds: 21, peakWords: 61475},
		36:  {weight: 7822.230069427147, passes: 45, rounds: 21, peakWords: 61142},
		37:  {weight: 7783.363619624372, passes: 45, rounds: 21, peakWords: 62250},
		38:  {weight: 7809.216098971843, passes: 45, rounds: 21, peakWords: 61500},
		39:  {weight: 7797.0748379739525, passes: 45, rounds: 21, peakWords: 61699},
		40:  {weight: 7840.836777556438, passes: 45, rounds: 21, peakWords: 62984},
		41:  {weight: 7792.823744424814, passes: 45, rounds: 21, peakWords: 59903},
		42:  {weight: 7817.524007518048, passes: 45, rounds: 21, peakWords: 61709},
		43:  {weight: 7825.312928759321, passes: 45, rounds: 21, peakWords: 62787},
		44:  {weight: 7785.5975947731495, passes: 45, rounds: 21, peakWords: 62270},
		45:  {weight: 7809.00119510534, passes: 45, rounds: 21, peakWords: 62322},
		46:  {weight: 7789.563404882931, passes: 45, rounds: 21, peakWords: 61018},
		47:  {weight: 7803.793455864718, passes: 45, rounds: 21, peakWords: 63543},
		48:  {weight: 7825.926910850035, passes: 45, rounds: 21, peakWords: 62394},
		49:  {weight: 7811.424008120426, passes: 45, rounds: 21, peakWords: 62347},
		50:  {weight: 7810.472504155973, passes: 45, rounds: 21, peakWords: 62352},
		51:  {weight: 7794.670963931267, passes: 45, rounds: 21, peakWords: 62332},
		52:  {weight: 7804.668401916077, passes: 45, rounds: 21, peakWords: 62453},
		53:  {weight: 7784.019026125968, passes: 45, rounds: 21, peakWords: 61315},
		54:  {weight: 7815.063952388637, passes: 45, rounds: 21, peakWords: 61197},
		55:  {weight: 7830.68374817438, passes: 45, rounds: 21, peakWords: 60683},
		56:  {weight: 7765.073920224427, passes: 45, rounds: 21, peakWords: 59881},
		57:  {weight: 7812.390298267051, passes: 45, rounds: 21, peakWords: 59496},
		58:  {weight: 7804.951232515575, passes: 45, rounds: 21, peakWords: 60848},
		59:  {weight: 7806.05292488492, passes: 45, rounds: 21, peakWords: 60787},
		60:  {weight: 7786.823966516298, passes: 45, rounds: 21, peakWords: 61749},
		61:  {weight: 7827.98235141417, passes: 45, rounds: 21, peakWords: 62572},
		62:  {weight: 7769.803649619935, passes: 45, rounds: 21, peakWords: 62207},
		63:  {weight: 7804.955442407337, passes: 45, rounds: 21, peakWords: 63518},
		64:  {weight: 7769.066630247141, passes: 45, rounds: 21, peakWords: 58936},
		65:  {weight: 7836.10381048759, passes: 45, rounds: 21, peakWords: 62298},
		66:  {weight: 7804.030050314013, passes: 45, rounds: 21, peakWords: 60634},
		67:  {weight: 7787.119339691701, passes: 45, rounds: 21, peakWords: 60620},
		68:  {weight: 7808.029418038663, passes: 45, rounds: 21, peakWords: 61144},
		69:  {weight: 7832.5714336705305, passes: 45, rounds: 21, peakWords: 61693},
		70:  {weight: 7785.372195628781, passes: 45, rounds: 21, peakWords: 60186},
		71:  {weight: 7747.448615627148, passes: 45, rounds: 21, peakWords: 60073},
		72:  {weight: 7829.319312051758, passes: 45, rounds: 21, peakWords: 62258},
		73:  {weight: 7808.663649967181, passes: 45, rounds: 21, peakWords: 62781},
		74:  {weight: 7804.695418212597, passes: 45, rounds: 21, peakWords: 62038},
		75:  {weight: 7812.8983121313495, passes: 45, rounds: 21, peakWords: 62142},
		76:  {weight: 7776.401637967989, passes: 45, rounds: 21, peakWords: 61271},
		77:  {weight: 7804.841932919518, passes: 45, rounds: 21, peakWords: 62218},
		78:  {weight: 7809.468903348415, passes: 45, rounds: 21, peakWords: 59920},
		79:  {weight: 7800.710772532712, passes: 45, rounds: 21, peakWords: 60785},
		80:  {weight: 7814.53070729905, passes: 45, rounds: 21, peakWords: 61306},
		81:  {weight: 7791.401993615837, passes: 45, rounds: 21, peakWords: 62094},
		82:  {weight: 7794.762250699825, passes: 45, rounds: 21, peakWords: 58253},
		83:  {weight: 7795.674065502407, passes: 45, rounds: 21, peakWords: 59207},
		84:  {weight: 7810.420331464826, passes: 45, rounds: 21, peakWords: 61693},
		85:  {weight: 7804.095390376633, passes: 45, rounds: 21, peakWords: 61900},
		86:  {weight: 7816.7675910724065, passes: 45, rounds: 21, peakWords: 63109},
		87:  {weight: 7828.798446666809, passes: 45, rounds: 21, peakWords: 61191},
		88:  {weight: 7802.005137735494, passes: 45, rounds: 21, peakWords: 62178},
		89:  {weight: 7807.649695720582, passes: 45, rounds: 21, peakWords: 61818},
		90:  {weight: 7799.631992394626, passes: 45, rounds: 21, peakWords: 63700},
		91:  {weight: 7822.805422467446, passes: 45, rounds: 21, peakWords: 61746},
		92:  {weight: 7821.0424601445675, passes: 45, rounds: 21, peakWords: 61520},
		93:  {weight: 7820.440438957925, passes: 45, rounds: 21, peakWords: 63044},
		94:  {weight: 7854.365158013132, passes: 45, rounds: 21, peakWords: 62308},
		95:  {weight: 7820.624227046181, passes: 45, rounds: 21, peakWords: 60886},
		96:  {weight: 7821.300023446673, passes: 45, rounds: 21, peakWords: 61861},
		97:  {weight: 7812.152254134296, passes: 45, rounds: 21, peakWords: 62847},
		98:  {weight: 7800.129959656958, passes: 45, rounds: 21, peakWords: 62065},
		99:  {weight: 7788.2674631981035, passes: 45, rounds: 21, peakWords: 60323},
		100: {weight: 7798.040634638695, passes: 45, rounds: 21, peakWords: 63932},
		101: {weight: 7844.923936969412, passes: 45, rounds: 21, peakWords: 62723},
		102: {weight: 7805.228541883152, passes: 45, rounds: 21, peakWords: 61245},
		103: {weight: 7803.368373068551, passes: 45, rounds: 21, peakWords: 61032},
		104: {weight: 7780.384145204694, passes: 45, rounds: 21, peakWords: 60306},
		105: {weight: 7799.370256281215, passes: 45, rounds: 21, peakWords: 58969},
		106: {weight: 7818.72578274897, passes: 45, rounds: 21, peakWords: 61828},
		107: {weight: 7804.258557444914, passes: 45, rounds: 21, peakWords: 61641},
		108: {weight: 7785.281345084429, passes: 45, rounds: 21, peakWords: 62150},
		109: {weight: 7802.428073136894, passes: 45, rounds: 21, peakWords: 59936},
		110: {weight: 7792.8743571493815, passes: 45, rounds: 21, peakWords: 61907},
		111: {weight: 7819.325884322769, passes: 45, rounds: 21, peakWords: 62126},
		112: {weight: 7806.250610479094, passes: 45, rounds: 21, peakWords: 61435},
		113: {weight: 7812.782465675736, passes: 45, rounds: 21, peakWords: 61193},
		114: {weight: 7810.715574993953, passes: 45, rounds: 21, peakWords: 60485},
		115: {weight: 7796.917459558646, passes: 45, rounds: 21, peakWords: 61660},
		116: {weight: 7797.651798595981, passes: 45, rounds: 21, peakWords: 60811},
		117: {weight: 7800.121078500468, passes: 45, rounds: 21, peakWords: 61554},
		118: {weight: 7826.6085077562975, passes: 45, rounds: 21, peakWords: 62315},
		119: {weight: 7786.964162377973, passes: 45, rounds: 21, peakWords: 63112},
		120: {weight: 7817.4460035345965, passes: 45, rounds: 21, peakWords: 60719},
		121: {weight: 7792.192451191135, passes: 45, rounds: 21, peakWords: 62252},
		122: {weight: 7820.7346173656415, passes: 45, rounds: 21, peakWords: 60456},
		123: {weight: 7820.593166187123, passes: 45, rounds: 21, peakWords: 62152},
		124: {weight: 7801.170397508398, passes: 45, rounds: 21, peakWords: 62278},
		125: {weight: 7778.629195948484, passes: 45, rounds: 21, peakWords: 60618},
		126: {weight: 7766.633990951318, passes: 45, rounds: 21, peakWords: 61208},
		127: {weight: 7822.42882266774, passes: 45, rounds: 21, peakWords: 62021},
		301: {weight: 7812.806589898133, passes: 45, rounds: 21, peakWords: 62562},
		302: {weight: 7797.772185993736, passes: 45, rounds: 21, peakWords: 61746},
		303: {weight: 7822.588703211435, passes: 45, rounds: 21, peakWords: 61724},
		304: {weight: 7806.004284021899, passes: 45, rounds: 21, peakWords: 62261},
		305: {weight: 7802.7898517110625, passes: 45, rounds: 21, peakWords: 59808},
		306: {weight: 7789.571379031298, passes: 45, rounds: 21, peakWords: 61475},
		307: {weight: 7848.918660109252, passes: 45, rounds: 21, peakWords: 63099},
		308: {weight: 7812.62300777285, passes: 45, rounds: 21, peakWords: 63467},
		309: {weight: 7777.3051161133535, passes: 45, rounds: 21, peakWords: 62948},
		310: {weight: 7822.177691643729, passes: 45, rounds: 21, peakWords: 62495},
	},
	"scan-greedy": {
		0:   {weight: 427148.12405399786, passes: 7, rounds: 4, peakWords: 196608},
		1:   {weight: 424919.1183610331, passes: 7, rounds: 4, peakWords: 196608},
		2:   {weight: 426654.31039176753, passes: 7, rounds: 4, peakWords: 196608},
		3:   {weight: 424087.32979055407, passes: 7, rounds: 4, peakWords: 196608},
		4:   {weight: 427091.6858218247, passes: 7, rounds: 4, peakWords: 196608},
		5:   {weight: 427805.44866141066, passes: 5, rounds: 3, peakWords: 196608},
		6:   {weight: 425011.0289008878, passes: 7, rounds: 4, peakWords: 196608},
		7:   {weight: 427029.4613029244, passes: 7, rounds: 4, peakWords: 196608},
		8:   {weight: 423343.90745534905, passes: 7, rounds: 4, peakWords: 196608},
		9:   {weight: 427858.8362086956, passes: 7, rounds: 4, peakWords: 196608},
		10:  {weight: 424710.2778039571, passes: 7, rounds: 4, peakWords: 196608},
		11:  {weight: 426139.7084537779, passes: 7, rounds: 4, peakWords: 196608},
		12:  {weight: 425418.99621786794, passes: 7, rounds: 4, peakWords: 196608},
		13:  {weight: 426091.5908397352, passes: 7, rounds: 4, peakWords: 196608},
		14:  {weight: 426115.18834503216, passes: 7, rounds: 4, peakWords: 196608},
		15:  {weight: 428501.55615236546, passes: 7, rounds: 4, peakWords: 196608},
		16:  {weight: 426286.19864684413, passes: 7, rounds: 4, peakWords: 196608},
		17:  {weight: 426702.00391281326, passes: 7, rounds: 4, peakWords: 196608},
		18:  {weight: 425877.25012990326, passes: 7, rounds: 4, peakWords: 196608},
		19:  {weight: 425438.9617429976, passes: 7, rounds: 4, peakWords: 196608},
		20:  {weight: 424599.75637143705, passes: 7, rounds: 4, peakWords: 196608},
		21:  {weight: 427291.8123231773, passes: 7, rounds: 4, peakWords: 196608},
		22:  {weight: 425510.94845753, passes: 7, rounds: 4, peakWords: 196608},
		23:  {weight: 425898.5018021645, passes: 7, rounds: 4, peakWords: 196608},
		24:  {weight: 425952.6496995052, passes: 7, rounds: 4, peakWords: 196608},
		25:  {weight: 424838.37043186196, passes: 7, rounds: 4, peakWords: 196608},
		26:  {weight: 426635.5885573016, passes: 7, rounds: 4, peakWords: 196608},
		27:  {weight: 424969.84774105874, passes: 7, rounds: 4, peakWords: 196608},
		28:  {weight: 424675.08500439144, passes: 7, rounds: 4, peakWords: 196608},
		29:  {weight: 425991.1082467151, passes: 7, rounds: 4, peakWords: 196608},
		30:  {weight: 425718.45499000367, passes: 7, rounds: 4, peakWords: 196608},
		31:  {weight: 424922.9460843544, passes: 7, rounds: 4, peakWords: 196608},
		32:  {weight: 424382.5106007741, passes: 7, rounds: 4, peakWords: 196608},
		33:  {weight: 425368.4412685176, passes: 7, rounds: 4, peakWords: 196608},
		34:  {weight: 426005.14632646606, passes: 7, rounds: 4, peakWords: 196608},
		35:  {weight: 426694.88412246574, passes: 7, rounds: 4, peakWords: 196608},
		36:  {weight: 426204.0709709889, passes: 7, rounds: 4, peakWords: 196608},
		37:  {weight: 424263.330906747, passes: 7, rounds: 4, peakWords: 196608},
		38:  {weight: 425492.64508304023, passes: 7, rounds: 4, peakWords: 196608},
		39:  {weight: 426651.3822287153, passes: 7, rounds: 4, peakWords: 196608},
		40:  {weight: 428462.5428569079, passes: 7, rounds: 4, peakWords: 196608},
		41:  {weight: 427083.9894697192, passes: 7, rounds: 4, peakWords: 196608},
		42:  {weight: 425538.9292600087, passes: 7, rounds: 4, peakWords: 196608},
		43:  {weight: 423112.59787954594, passes: 7, rounds: 4, peakWords: 196608},
		44:  {weight: 428552.91855460574, passes: 7, rounds: 4, peakWords: 196608},
		45:  {weight: 425400.5446694225, passes: 7, rounds: 4, peakWords: 196608},
		46:  {weight: 424427.07847478584, passes: 7, rounds: 4, peakWords: 196608},
		47:  {weight: 425376.67971894174, passes: 7, rounds: 4, peakWords: 196608},
		48:  {weight: 424234.53501801036, passes: 7, rounds: 4, peakWords: 196608},
		49:  {weight: 426566.4054412744, passes: 7, rounds: 4, peakWords: 196608},
		50:  {weight: 427327.0260632555, passes: 7, rounds: 4, peakWords: 196608},
		51:  {weight: 426314.78543506714, passes: 7, rounds: 4, peakWords: 196608},
		52:  {weight: 425348.62716324715, passes: 7, rounds: 4, peakWords: 196608},
		53:  {weight: 426014.9611601314, passes: 7, rounds: 4, peakWords: 196608},
		54:  {weight: 423675.23643041257, passes: 7, rounds: 4, peakWords: 196608},
		55:  {weight: 426888.9467122993, passes: 7, rounds: 4, peakWords: 196608},
		56:  {weight: 425283.72368988144, passes: 7, rounds: 4, peakWords: 196608},
		57:  {weight: 427348.77051248896, passes: 7, rounds: 4, peakWords: 196608},
		58:  {weight: 426800.1814967257, passes: 7, rounds: 4, peakWords: 196608},
		59:  {weight: 424552.2978948728, passes: 7, rounds: 4, peakWords: 196608},
		60:  {weight: 426930.71743023314, passes: 7, rounds: 4, peakWords: 196608},
		61:  {weight: 425785.36517388874, passes: 7, rounds: 4, peakWords: 196608},
		62:  {weight: 426628.40603134275, passes: 7, rounds: 4, peakWords: 196608},
		63:  {weight: 428030.06242321513, passes: 7, rounds: 4, peakWords: 196608},
		64:  {weight: 425692.09182312095, passes: 7, rounds: 4, peakWords: 196608},
		65:  {weight: 427017.9850299366, passes: 7, rounds: 4, peakWords: 196608},
		66:  {weight: 426409.3904372169, passes: 7, rounds: 4, peakWords: 196608},
		67:  {weight: 427711.4001319921, passes: 7, rounds: 4, peakWords: 196608},
		68:  {weight: 423435.9022641565, passes: 7, rounds: 4, peakWords: 196608},
		69:  {weight: 424897.1762277252, passes: 7, rounds: 4, peakWords: 196608},
		70:  {weight: 427561.9909481515, passes: 7, rounds: 4, peakWords: 196608},
		71:  {weight: 427815.40549380466, passes: 7, rounds: 4, peakWords: 196608},
		72:  {weight: 424574.15263750096, passes: 7, rounds: 4, peakWords: 196608},
		73:  {weight: 424609.2214324908, passes: 7, rounds: 4, peakWords: 196608},
		74:  {weight: 424650.06339275464, passes: 7, rounds: 4, peakWords: 196608},
		75:  {weight: 425234.87679271016, passes: 7, rounds: 4, peakWords: 196608},
		76:  {weight: 426997.1559416015, passes: 7, rounds: 4, peakWords: 196608},
		77:  {weight: 426570.49413251824, passes: 7, rounds: 4, peakWords: 196608},
		78:  {weight: 426428.30204674014, passes: 5, rounds: 3, peakWords: 196608},
		79:  {weight: 428161.5811746651, passes: 7, rounds: 4, peakWords: 196608},
		80:  {weight: 426398.90000074607, passes: 7, rounds: 4, peakWords: 196608},
		81:  {weight: 425092.4059145688, passes: 7, rounds: 4, peakWords: 196608},
		82:  {weight: 425367.31390356953, passes: 7, rounds: 4, peakWords: 196608},
		83:  {weight: 427601.3877004026, passes: 7, rounds: 4, peakWords: 196608},
		84:  {weight: 425110.40359005594, passes: 9, rounds: 5, peakWords: 196608},
		85:  {weight: 426441.05858300795, passes: 7, rounds: 4, peakWords: 196608},
		86:  {weight: 426241.2632193123, passes: 7, rounds: 4, peakWords: 196608},
		87:  {weight: 428192.9099302436, passes: 7, rounds: 4, peakWords: 196608},
		88:  {weight: 426798.7119746486, passes: 7, rounds: 4, peakWords: 196608},
		89:  {weight: 426432.06023645896, passes: 7, rounds: 4, peakWords: 196608},
		90:  {weight: 426010.13184930995, passes: 7, rounds: 4, peakWords: 196608},
		91:  {weight: 423994.77453134744, passes: 7, rounds: 4, peakWords: 196608},
		92:  {weight: 427720.7049706, passes: 7, rounds: 4, peakWords: 196608},
		93:  {weight: 427044.36291937064, passes: 7, rounds: 4, peakWords: 196608},
		94:  {weight: 426196.5468738112, passes: 7, rounds: 4, peakWords: 196608},
		95:  {weight: 426608.98437298794, passes: 7, rounds: 4, peakWords: 196608},
		96:  {weight: 426426.9782877415, passes: 7, rounds: 4, peakWords: 196608},
		97:  {weight: 425581.924472027, passes: 7, rounds: 4, peakWords: 196608},
		98:  {weight: 426307.1284059532, passes: 7, rounds: 4, peakWords: 196608},
		99:  {weight: 426968.6123480719, passes: 7, rounds: 4, peakWords: 196608},
		100: {weight: 426796.37451798737, passes: 7, rounds: 4, peakWords: 196608},
		101: {weight: 425255.1837424522, passes: 7, rounds: 4, peakWords: 196608},
		102: {weight: 426818.53990411654, passes: 7, rounds: 4, peakWords: 196608},
		103: {weight: 427014.93408312206, passes: 7, rounds: 4, peakWords: 196608},
		104: {weight: 424976.8879666159, passes: 7, rounds: 4, peakWords: 196608},
		105: {weight: 426308.6538192071, passes: 7, rounds: 4, peakWords: 196608},
		106: {weight: 425137.4329641966, passes: 7, rounds: 4, peakWords: 196608},
		107: {weight: 426721.6205838808, passes: 7, rounds: 4, peakWords: 196608},
		108: {weight: 424677.2991343009, passes: 7, rounds: 4, peakWords: 196608},
		109: {weight: 427105.3560666311, passes: 7, rounds: 4, peakWords: 196608},
		110: {weight: 426222.6388822211, passes: 7, rounds: 4, peakWords: 196608},
		111: {weight: 425887.7665570052, passes: 7, rounds: 4, peakWords: 196608},
		112: {weight: 424123.5872784344, passes: 7, rounds: 4, peakWords: 196608},
		113: {weight: 426569.03971279185, passes: 7, rounds: 4, peakWords: 196608},
		114: {weight: 427437.0777673765, passes: 7, rounds: 4, peakWords: 196608},
		115: {weight: 427072.8908628602, passes: 7, rounds: 4, peakWords: 196608},
		116: {weight: 427740.7033078698, passes: 7, rounds: 4, peakWords: 196608},
		117: {weight: 427639.78924070136, passes: 7, rounds: 4, peakWords: 196608},
		118: {weight: 425479.7591662691, passes: 7, rounds: 4, peakWords: 196608},
		119: {weight: 425914.3268042648, passes: 7, rounds: 4, peakWords: 196608},
		120: {weight: 427329.0885796155, passes: 7, rounds: 4, peakWords: 196608},
		121: {weight: 427899.489201988, passes: 7, rounds: 4, peakWords: 196608},
		122: {weight: 427471.40483022947, passes: 7, rounds: 4, peakWords: 196608},
		123: {weight: 425348.0690140614, passes: 7, rounds: 4, peakWords: 196608},
		124: {weight: 427024.55735449935, passes: 7, rounds: 4, peakWords: 196608},
		125: {weight: 425054.3109671914, passes: 7, rounds: 4, peakWords: 196608},
		126: {weight: 423621.1215319853, passes: 7, rounds: 4, peakWords: 196608},
		127: {weight: 428044.2915212617, passes: 7, rounds: 4, peakWords: 196608},
		301: {weight: 424536.9445225595, passes: 7, rounds: 4, peakWords: 196608},
		302: {weight: 427068.6366528292, passes: 7, rounds: 4, peakWords: 196608},
		303: {weight: 427770.6708520208, passes: 7, rounds: 4, peakWords: 196608},
		304: {weight: 424471.78788079234, passes: 7, rounds: 4, peakWords: 196608},
		305: {weight: 424392.6215133972, passes: 5, rounds: 3, peakWords: 196608},
		306: {weight: 424841.39849564625, passes: 7, rounds: 4, peakWords: 196608},
		307: {weight: 425906.49343904195, passes: 7, rounds: 4, peakWords: 196608},
		308: {weight: 427988.8216798455, passes: 7, rounds: 4, peakWords: 196608},
		309: {weight: 426708.01480974257, passes: 7, rounds: 4, peakWords: 196608},
		310: {weight: 424935.9907634851, passes: 7, rounds: 4, peakWords: 196608},
	},
}

// parseSeedRange reads "lo-hi" (or a single seed) into an inclusive range.
func parseSeedRange(s string) (lo, hi uint64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if lo, err = strconv.ParseUint(a, 10, 64); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.ParseUint(b, 10, 64); err != nil {
		return 0, 0, err
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("empty seed range %q", s)
	}
	return lo, hi, nil
}

// printPins solves the full-size instance of each seed in [lo, hi] once,
// validates it, and prints its entry in the form of the pins map:
//
//	bash perfbench/run.sh --workload solve-ooc --pin 0-127
func printPins(opt options, lo, hi uint64, w io.Writer) error {
	specOf, ok := batchSpecs[opt.workload]
	if !ok {
		return fmt.Errorf("workload %s has no pins", opt.workload)
	}
	sp := specOf(false)
	for seed := lo; ; seed++ {
		path := filepath.Join(opt.dir, fmt.Sprintf("pin-%s-%d.rbg", opt.workload, seed))
		in, err := buildInstance(path, sp, seed)
		if err != nil {
			return err
		}
		in.g = nil
		o, err := solveOnce(in.src, sp.options(), false)
		if err == nil {
			err = o.err
		}
		if err == nil {
			err = o.res.Validate(in.src)
		}
		in.close()
		os.Remove(path)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		st := o.res.Stats
		fmt.Fprintf(w, "\t\t%d: {weight: %v, passes: %d, rounds: %d, peakWords: %d},\n",
			seed, o.res.Weight, st.Passes, st.SamplingRounds, st.PeakWords)
		if seed == hi {
			return nil
		}
	}
}
