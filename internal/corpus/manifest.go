package corpus

// An entry is one corpus app: its name, its market group (1..6; 0 for
// an app in none of the six) and its tags. Its source is the file
// apps/<FileName(name)>.
type entry struct {
	name  string
	group int
	tags  []Tag
}

// manifest lists every corpus app. The named apps come first; each
// market group's section holds the rest of that group.
var manifest = []entry{
	// The apps the paper names explicitly: the Table 2 dependency-graph
	// example, the Figure 1 Virtual Thermostat, and the Figure 8 violation
	// scenarios. Their logic follows the published SmartThingsCommunity
	// sources the paper analysed.
	{"Brighten Dark Places", 1, []Tag{TagMarket}},
	{"Let There Be Dark!", 1, []Tag{TagMarket}},
	{"Auto Mode Change", 1, []Tag{TagMarket}},
	{"Unlock Door", 1, []Tag{TagMarket, TagBad}},
	{"Big Turn On", 1, []Tag{TagMarket}},
	{"Virtual Thermostat", 2, []Tag{TagMarket}},
	{"Good Night", 3, []Tag{TagMarket}},
	{"Light Follows Me", 3, []Tag{TagMarket}},
	{"Light Off When Close", 3, []Tag{TagMarket}},
	{"Make It So", 4, []Tag{TagMarket}},
	{"Darken Behind Me", 4, []Tag{TagMarket}},
	{"Switch Changes Mode", 4, []Tag{TagMarket, TagBad}},
	{"Energy Saver", 2, []Tag{TagMarket, TagBad}},
	{"Smart Security", 5, []Tag{TagMarket}},
	{"It's Too Cold", 2, []Tag{TagMarket, TagGood}},

	// Group 1: lighting and entry automation (contact sensors, illuminance,
	// switches, locks). 25 apps with the named Table 2 apps.
	{"Let There Be Light", 1, []Tag{TagMarket}},
	{"Smart Nightlight", 1, []Tag{TagMarket}},
	{"Welcome Home Light", 1, []Tag{TagMarket}},
	{"Goodbye Lights", 1, []Tag{TagMarket}},
	{"Lock It When I Leave", 1, []Tag{TagMarket, TagGood}},
	{"Unlock When I Arrive", 1, []Tag{TagMarket, TagBad}},
	{"Auto Lock Door", 1, []Tag{TagMarket}},
	{"Forgotten Door Alert", 1, []Tag{TagMarket, TagGood}},
	{"Closet Light", 1, []Tag{TagMarket}},
	{"Big Turn Off", 1, []Tag{TagMarket}},
	{"Double Duty Contact", 1, []Tag{TagMarket}},
	{"Illuminance Curtain Call", 1, []Tag{TagMarket}},
	{"Sunrise Off Sunset On", 1, []Tag{TagMarket}},
	{"Knock Knock Unlock", 1, []Tag{TagMarket, TagBad}},
	{"Light Up the Night", 1, []Tag{TagMarket}},
	{"Curfew Check", 1, []Tag{TagMarket, TagGood}},
	{"Porch Motion Spotlight", 1, []Tag{TagMarket}},
	{"Open Sesame", 1, []Tag{TagMarket, TagBad}},
	{"Dark Arrival", 1, []Tag{TagMarket}},
	{"Front Door Greeter", 1, []Tag{TagMarket}},

	// Group 2: climate control (temperature, thermostats, heaters, AC,
	// humidity, fans). 25 apps with Virtual Thermostat, Energy Saver, and
	// It's Too Cold.
	{"It's Too Hot", 2, []Tag{TagMarket}},
	{"Thermostat Mode Director", 2, []Tag{TagMarket}},
	{"Heater Minder", 2, []Tag{TagMarket}},
	{"AC Minder", 2, []Tag{TagMarket}},
	{"Humidity Alert", 2, []Tag{TagMarket, TagGood}},
	{"Bathroom Fan Control", 2, []Tag{TagMarket}},
	{"Window Fan When Cool", 2, []Tag{TagMarket}},
	{"Freeze Guard", 2, []Tag{TagMarket}},
	{"Thermostat Setpoint Sync", 2, []Tag{TagMarket}},
	{"Away Thermostat Setback", 2, []Tag{TagMarket}},
	{"Space Heater Curfew", 2, []Tag{TagMarket, TagGood}},
	{"Energy Hog Alert", 2, []Tag{TagMarket, TagGood}},
	{"Laundry Monitor", 2, []Tag{TagMarket}},
	{"Peak Shaver", 2, []Tag{TagMarket}},
	{"Comfort Band Keeper", 2, []Tag{TagMarket}},
	{"Night Heat Drop", 2, []Tag{TagMarket, TagBad}},
	{"Whole House Fan", 2, []Tag{TagMarket}},
	{"Radiator Valve Saver", 2, []Tag{TagMarket}},
	{"Window Open Heat Off", 2, []Tag{TagMarket}},
	{"Morning Warmup", 2, []Tag{TagMarket}},
	{"Too Cold Valve Guard", 2, []Tag{TagMarket}},
	{"Thermostat Away Mode Switch", 2, []Tag{TagMarket}},

	// Group 3: night-time and sleep automation (modes, motion timers,
	// sleep sensors, shades). 25 apps with Good Night, Light Follows Me,
	// and Light Off When Close.
	{"Good Morning", 3, []Tag{TagMarket}},
	{"Sleep Mode by Sensor", 3, []Tag{TagMarket}},
	{"Nightlight Path", 3, []Tag{TagMarket}},
	{"Lights Out at Night", 3, []Tag{TagMarket}},
	{"Shades Down at Night", 3, []Tag{TagMarket}},
	{"Midnight Snack Light", 3, []Tag{TagMarket}},
	{"TV Off at Bedtime", 3, []Tag{TagMarket}},
	{"Bedtime Lock Check", 3, []Tag{TagMarket, TagGood}},
	{"Wake Up Light", 3, []Tag{TagMarket}},
	{"No Motion Night Saver", 3, []Tag{TagMarket}},
	{"Night Arrival Greeting", 3, []Tag{TagMarket}},
	{"Baby Monitor Light", 3, []Tag{TagMarket}},
	{"Sunset Mode Change", 3, []Tag{TagMarket}},
	{"Sunrise Mode Change", 3, []Tag{TagMarket}},
	{"Night Owl Warning", 3, []Tag{TagMarket}},
	{"Night Mode Door Watch", 3, []Tag{TagMarket}},
	{"Sleepy Time Media Pause", 3, []Tag{TagMarket}},
	{"Gentle Wake Music", 3, []Tag{TagMarket}},
	{"Night Mode Guard Dog", 3, []Tag{TagMarket}},
	{"Bedtime Heater Guard", 3, []Tag{TagMarket, TagGood}},
	{"Morning Coffee", 3, []Tag{TagMarket}},
	{"Night Light Follow", 3, []Tag{TagMarket}},

	// Group 4: presence, modes, and departures (Make It So, Darken Behind
	// Me, Switch Changes Mode plus 22 more).
	{"Everyone's Gone", 4, []Tag{TagMarket, TagGood}},
	{"I'm Back", 4, []Tag{TagMarket}},
	{"Vacation Lighting Director", 4, []Tag{TagMarket}},
	{"Departure Camera Arm", 4, []Tag{TagMarket}},
	{"Mode Follows Switch", 4, []Tag{TagMarket}},
	{"Presence Valve Control", 4, []Tag{TagMarket}},
	{"Garage Closer", 4, []Tag{TagMarket, TagGood}},
	{"Garage Opener on Arrival", 4, []Tag{TagMarket, TagBad}},
	{"Away Media Stop", 4, []Tag{TagMarket}},
	{"Mode Text Alerts", 4, []Tag{TagMarket}},
	{"Curling Iron Cutoff", 4, []Tag{TagMarket, TagGood}},
	{"Arrival Thermostat Boost", 4, []Tag{TagMarket}},
	{"Left Alone Pet Light", 4, []Tag{TagMarket}},
	{"Back Door Auto Close", 4, []Tag{TagMarket}},
	{"Driveway Motion Mode Check", 4, []Tag{TagMarket}},
	{"Switch On Mode Guard", 4, []Tag{TagMarket}},
	{"Two Stage Departure", 4, []Tag{TagMarket}},
	{"Guest Mode Unlock", 4, []Tag{TagMarket, TagBad}},
	{"Weekend Warmup Switch", 4, []Tag{TagMarket}},
	{"Nobody Home Lights Off", 4, []Tag{TagMarket}},
	{"Dog Walker Window", 4, []Tag{TagMarket, TagBad}},
	{"Acceleration Alarm Arm", 4, []Tag{TagMarket}},

	// Group 5: safety and security (smoke, CO, leaks, alarms, valves,
	// cameras). 25 apps with Smart Security.
	{"Smoke Alarm Actions", 5, []Tag{TagMarket, TagGood}},
	{"CO Alert", 5, []Tag{TagMarket, TagGood}},
	{"Flood Alert", 5, []Tag{TagMarket, TagGood}},
	{"Intruder Strobe", 5, []Tag{TagMarket}},
	{"Entry Breach Siren", 5, []Tag{TagMarket}},
	{"Alarm Silencer", 5, []Tag{TagMarket, TagBad}},
	{"Fire Escape Unlock", 5, []Tag{TagMarket, TagGood}},
	{"Smoke Heater Cutoff", 5, []Tag{TagMarket}},
	{"Leak Chime", 5, []Tag{TagMarket}},
	{"Alarm Auto Reset", 5, []Tag{TagMarket}},
	{"Away Intrusion Camera", 5, []Tag{TagMarket}},
	{"Glass Break Response", 5, []Tag{TagMarket}},
	{"Security Arm on Away", 5, []Tag{TagMarket}},
	{"Panic Button", 5, []Tag{TagMarket, TagGood}},
	{"Smoke Valve Protect", 5, []Tag{TagMarket}},
	{"Tamper Text", 5, []Tag{TagMarket}},
	{"Basement Water Watch", 5, []Tag{TagMarket}},
	{"Night Perimeter Check", 5, []Tag{TagMarket, TagGood}},
	{"CO Fan Purge", 5, []Tag{TagMarket}},
	{"Mode Aware Siren Test", 5, []Tag{TagMarket}},
	{"Door Left Open Siren", 5, []Tag{TagMarket}},
	{"Water Heater Leak Guard", 5, []Tag{TagMarket}},
	{"Smoke Lights Beacon", 5, []Tag{TagMarket}},
	{"Sump Pump Sentinel", 5, []Tag{TagMarket}},

	// Group 6: appliances, garden, buttons, and miscellany. 25 apps.
	{"Smart Sprinkler", 6, []Tag{TagMarket, TagGood}},
	{"Rainy Day Skip", 6, []Tag{TagMarket}},
	{"Button Scene Setter", 6, []Tag{TagMarket}},
	{"Double Tap Big Off", 6, []Tag{TagMarket}},
	{"Energy Budget Tracker", 6, []Tag{TagMarket}},
	{"Shade Sun Tracker", 6, []Tag{TagMarket}},
	{"Doorbell Speaker", 6, []Tag{TagMarket}},
	{"Appliance Done Speaker", 6, []Tag{TagMarket}},
	{"Plant Minder", 6, []Tag{TagMarket, TagGood}},
	{"Garden Valve Timer", 6, []Tag{TagMarket}},
	{"Color Mood Light", 6, []Tag{TagMarket}},
	{"Fridge Door Energy Saver", 6, []Tag{TagMarket}},
	{"Medicine Reminder", 6, []Tag{TagMarket}},
	{"Pet Feeder Checker", 6, []Tag{TagMarket}},
	{"Washer Vibration Done", 6, []Tag{TagMarket}},
	{"Window AC Contact Guard", 6, []Tag{TagMarket}},
	{"Aquarium Light Schedule", 6, []Tag{TagMarket}},
	{"Speaker Weather Goodbye", 6, []Tag{TagMarket}},
	{"Garage Workbench Auto Off", 6, []Tag{TagMarket}},
	{"Holiday Light Show", 6, []Tag{TagMarket}},
	{"Desk Lamp Presence", 6, []Tag{TagMarket}},
	{"Humidity Window Cracker", 6, []Tag{TagMarket}},
	{"Level Lock Step", 6, []Tag{TagMarket}},
	{"Sprinkler Mode Pause", 6, []Tag{TagMarket}},
	{"Soil Sensor Battery Watch", 6, []Tag{TagMarket}},

	// Apps beyond the paper's 150 market apps, used by unit tests and
	// examples.
	{"Hall Light on Door Knock", 0, []Tag{TagExtra}},
	{"Entry Light Dimmer", 0, []Tag{TagExtra}},
	{"Flash on Arrival", 0, []Tag{TagExtra}},
	{"Left It Open Light", 0, []Tag{TagExtra}},
	{"Temp Spike Camera", 0, []Tag{TagExtra}},
	{"Dry Air Humidifier", 0, []Tag{TagExtra}},
	{"Dim With Me", 0, []Tag{TagExtra}},
	{"Mail Carrier Alert", 0, []Tag{TagExtra}},

	// The 9 ContexIoT-style malicious apps used in §10.3. Following Jia et
	// al., each masquerades as a benign convenience app (trojaned
	// description) while leaking data via network interfaces, forging
	// events, executing security-sensitive commands, or coercing unsafe
	// physical states.
	//
	// Information leakage via httpPost (2 apps).
	{"Presence Tracker Plus", 0, []Tag{TagMalicious}},
	{"Lock Activity Journal", 0, []Tag{TagMalicious}},
	// Fake events and security-sensitive commands (2 apps).
	{"Air Quality Helper", 0, []Tag{TagMalicious}},
	{"Battery Saver Pro", 0, []Tag{TagMalicious}},
	// Unsafe physical states (5 apps).
	{"Night Breeze", 0, []Tag{TagMalicious}},
	{"Water Saver Valve", 0, []Tag{TagMalicious}},
	{"Vacation Comfort Prep", 0, []Tag{TagMalicious}},
	{"Garage Airing Assistant", 0, []Tag{TagMalicious}},
	{"Welcome Door Opener", 0, []Tag{TagMalicious}},

	// The fault-injection group: apps whose safety depends on commands
	// actually reaching their devices. The persistent fault-injection
	// layer's gates run on this group: with faults off every app keeps its
	// invariants (mutually exclusive actuators are switched within one
	// handler run, off before on), while a single device outage lets an
	// in-flight command be delayed past the opposing command or silently
	// dropped — producing violations that are unreachable in the fault-free
	// model. The group also exercises stale attribute reads (a handler
	// consulting an offline sensor sees its last-reported value) and the
	// notified/unnotified split of the robustness property (an app that
	// pushes a notification alongside its command is not a silent-drop
	// victim).
	//
	// Mutually exclusive climate actuators switched inside one handler
	// run, always off-before-on: without faults "heater on AND ac on" is
	// unreachable (the therm.ac-and-heater-both-on invariant holds), but
	// a heater outage holds heater.off() in flight while ac.on() applies
	// — the fault-only violation the reachability gate requires.
	{"Climate Keeper", 0, []Tag{TagExtra, TagFaults}},
	// Reads the temperature sensor's current attribute from a motion
	// handler: while the sensor is offline the read returns the
	// last-reported (stale) value, exercising the platform-view
	// indirection without issuing commands.
	{"Comfort Monitor", 0, []Tag{TagExtra, TagFaults}},
	// Commands the heater and pushes a notification in the same handler
	// run: if the command is swallowed by an outage and later dropped,
	// the user was still notified — the robustness property's negative
	// case (silent-drop violations require an unnotified app).
	{"Heater Push Guard", 0, []Tag{TagExtra, TagFaults}},

	// The symmetry group: apps written against fleets of interchangeable
	// devices (multiple identical presence sensors, multiple identical
	// door contacts) driving shared singleton actuators. The symmetry
	// reduction's equivalence and fold-ratio gates run on this group: its
	// configurations install ≥3 interchangeable devices of two capability
	// types, so within-orbit permutations of sensor state induce large
	// isomorphic subspaces the canonicalization layer must fold without
	// changing the distinct-violation set. All apps are symmetry-safe by
	// construction: device identity appears only in log/notification
	// messages, aggregation over the device lists is order-insensitive
	// (any/each), and commands target singleton devices or broadcast
	// uniformly.
	//
	// Opposing commands on the same contact-open event: every open of
	// any of the interchangeable contacts raises a conflicting-commands
	// violation on the singleton hall light.
	{"Any Door Light On", 0, []Tag{TagExtra, TagSymmetry}},
	{"Any Door Light Off", 0, []Tag{TagExtra, TagSymmetry}},
	// Two apps turning the same light on for the same arrival event:
	// repeated-commands on the singleton light, triggered through the
	// presence-sensor orbit.
	{"Arrival Hall Light", 0, []Tag{TagExtra, TagSymmetry}},
	{"Welcome Glow", 0, []Tag{TagExtra, TagSymmetry}},
	// Order-insensitive aggregation over the presence orbit plus
	// persistent state and a lock actuator: exercises slot state and
	// queue canonicalization without breaking the symmetry certificate.
	{"Last Out Lock", 0, []Tag{TagExtra, TagSymmetry}},
	// Pure-local bookkeeping over the presence orbit: writes only its
	// own persistent state (no commands, no events), so its pending
	// dispatches are partial-order-reducible — the composed
	// POR+symmetry benchmark row needs both reductions to engage.
	{"Arrival Counter", 0, []Tag{TagExtra, TagSymmetry}},
	// Unlocks on any arrival: with Last Out Lock this reproduces the
	// paper's unsafe-unlock pattern over an orbit of presence sensors
	// (main-door invariants fire identically whichever sensor arrives).
	{"First In Unlock", 0, []Tag{TagExtra, TagSymmetry}},
}
