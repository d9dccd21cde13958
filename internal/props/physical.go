package props

import (
	"iotsan/internal/device"
	"iotsan/internal/model"
)

func modelOf(name string) *device.Model { return device.ModelByName(name) }

// ---- atom builders ----

// Atoms are built before any model exists (CompileCatalog feeds
// model.Plan.Build), so each one resolves its device list, attribute and
// value names to state indexes when it is built, against the plan's
// device table, and afterwards compares raw int16s. An atom is an
// immutable closure over those indexes: it is valid on every model built
// from the plan — every such model keeps every device at the same index
// — and only on those, which model.Invariant.DeviceKey enforces.
//
// Every builder returns the predicate together with the reads it
// declares (model.Atom), taken from the same refs the predicate scans:
// Inspect re-evaluates an atom only on a state whose transition wrote a
// device in its Reads (or the mode, with ReadsMode), so an atom must
// read nothing it does not declare. TestAtomReadSets holds every atom to
// that.

func anyEq(refs []model.AttrRef) model.Atom {
	return model.Atom{Reads: refs, Holds: func(s *model.State) bool { return s.AnyEq(refs) }}
}

// constant is an atom whose value no state can change: it reads nothing.
func constant(b bool) model.Atom {
	return model.Atom{Holds: func(*model.State) bool { return b }}
}

// enumAtom tests attr == value on any (or, with all, on every) device
// of devs.
func enumAtom(devs []*model.DevInst, attr, value string, all bool) model.Atom {
	refs, ok := model.EnumRefs(devs, attr, value)
	switch {
	case !all:
		return anyEq(refs)
	case !ok: // some device of the set can never hold the value
		return constant(false)
	}
	return model.Atom{Reads: refs, Holds: func(s *model.State) bool { return s.AllEq(refs) }}
}

// numAtom is true when any of devs reads the numeric attr at a value
// passing test.
func numAtom(devs []*model.DevInst, attr string, test func(int64) bool) model.Atom {
	refs := model.NumRefs(devs, attr)
	return model.Atom{Reads: refs, Holds: func(s *model.State) bool {
		for _, r := range refs {
			if test(int64(s.Raw(r))) {
				return true
			}
		}
		return false
	}}
}

// modeIs tests the location mode by index: is[i] says whether the
// configuration's i-th mode is the named one.
func modeIs(modes []string, mode string) model.Atom {
	is := make([]bool, len(modes))
	for i, m := range modes {
		is[i] = m == mode
	}
	return model.Atom{ReadsMode: true, Holds: func(s *model.State) bool { return is[s.Mode] }}
}

// Slots of the shared atoms: atom i of the catalog's table is bit i of
// a state's valuation word, and each property's formula is bound to bit
// tests on that word. Slot identity assumes one Thresholds per table
// (CompileCatalog compiles a whole catalog with a single th). numSlots
// must fit model.MaxAtoms (TestAtomSlotsFitOneWord).
const (
	slotAnyoneHome = iota
	slotModeAway
	slotModeHome
	slotModeNight
	slotSmoke
	slotCO
	slotLeak
	slotMotion
	slotTempLow
	slotTempHigh
	slotHeaterOn
	slotHeaterOff
	slotACOn
	slotACOff
	slotMainLocked
	slotMainUnlocked
	slotAnyLockUnlocked
	slotGarageOpen
	slotGarageClosed
	slotEntryOpen
	slotAnyDoorOpen
	slotAlarmOff
	slotSecurityArmed
	slotCamera
	slotButtonHeld
	slotSleeping
	slotFireValveClosed
	slotWaterMainOpen
	slotWaterMainClosed
	slotSprinklerOn
	slotSprinklerOff
	slotSoilDry
	slotSoilWet
	slotHumidityHigh
	slotAwayDeviceOn
	slotNightDeviceOn
	slotEntertainmentOn
	slotShadeOpen
	slotNightLightOn
	slotThermSpanBad
	numSlots
)

// commonAtoms builds the slot-indexed atom table the whole catalog
// shares, resolved against plan's devices.
func commonAtoms(plan *model.Plan, th Thresholds) []model.Atom {
	plan.Counts.AtomTables++
	// any/all device with the role or capability has attr == value
	anyAssoc := func(role, attr, value string) model.Atom {
		return enumAtom(plan.ByAssociation(role), attr, value, false)
	}
	allAssoc := func(role, attr, value string) model.Atom {
		return enumAtom(plan.ByAssociation(role), attr, value, true)
	}
	anyCap := func(capName, attr, value string) model.Atom {
		return enumAtom(plan.ByCapability(capName), attr, value, false)
	}
	// any device with the capability reads attr below / above th
	numBelow := func(capName, attr string, th int64) model.Atom {
		return numAtom(plan.ByCapability(capName), attr, func(n int64) bool { return n < th })
	}
	numAbove := func(capName, attr string, th int64) model.Atom {
		return numAtom(plan.ByCapability(capName), attr, func(n int64) bool { return n > th })
	}
	// The View's built-ins, from the same resolved refs. Without presence
	// sensors the home is conservatively occupied.
	watch := plan.Watch()
	anyoneHome := anyEq(watch.Presence)
	if watch.NoPresenceSensors {
		anyoneHome = constant(true)
	}
	modes := plan.Cfg.Modes

	atoms := make([]model.Atom, numSlots)
	set := func(slot int, name string, a model.Atom) {
		a.Name = name
		atoms[slot] = a
	}
	set(slotAnyoneHome, "anyone_home", anyoneHome)
	set(slotModeAway, "mode_away", modeIs(modes, "Away"))
	set(slotModeHome, "mode_home", modeIs(modes, "Home"))
	set(slotModeNight, "mode_night", modeIs(modes, "Night"))
	set(slotSmoke, "smoke_detected", anyEq(watch.Smoke))
	set(slotCO, "co_detected", anyEq(watch.CO))
	set(slotLeak, "leak_detected", anyEq(watch.Leak))
	set(slotMotion, "motion_active", anyEq(watch.Motion))
	set(slotTempLow, "temp_low", numBelow("temperatureMeasurement", "temperature", th.TempLow))
	set(slotTempHigh, "temp_high", numAbove("temperatureMeasurement", "temperature", th.TempHigh))

	set(slotHeaterOn, "heater_on", anyAssoc(RoleHeater, "switch", "on"))
	set(slotHeaterOff, "heater_off", anyAssoc(RoleHeater, "switch", "off"))
	set(slotACOn, "ac_on", anyAssoc(RoleAC, "switch", "on"))
	set(slotACOff, "ac_off", anyAssoc(RoleAC, "switch", "off"))

	set(slotMainLocked, "main_door_locked", allAssoc(RoleMainDoor, "lock", "locked"))
	set(slotMainUnlocked, "main_door_unlocked", anyAssoc(RoleMainDoor, "lock", "unlocked"))
	set(slotAnyLockUnlocked, "any_lock_unlocked", anyCap("lock", "lock", "unlocked"))
	set(slotGarageOpen, "garage_open", anyAssoc(RoleGarage, "door", "open"))
	set(slotGarageClosed, "garage_closed", allAssoc(RoleGarage, "door", "closed"))
	set(slotEntryOpen, "entry_contact_open", anyAssoc(RoleEntryContact, "contact", "open"))
	set(slotAnyDoorOpen, "any_door_open", anyCap("doorControl", "door", "open"))

	// alarm_active is alarm_off's negation (see bind).
	set(slotAlarmOff, "alarm_off", enumAtom(plan.ByCapability("alarm"), "alarm", "off", true))
	set(slotSecurityArmed, "security_armed", anyAssoc(RoleSecuritySw, "switch", "on"))
	set(slotCamera, "camera_capturing", anyAssoc(RoleCamera, "image", "taken"))
	set(slotButtonHeld, "button_held", anyCap("button", "button", "held"))
	set(slotSleeping, "sleeping", anyCap("sleepSensor", "sleeping", "sleeping"))

	set(slotFireValveClosed, "fire_valve_closed", anyAssoc(RoleFireValve, "valve", "closed"))
	set(slotWaterMainOpen, "water_main_open", anyAssoc(RoleWaterMain, "valve", "open"))
	set(slotWaterMainClosed, "water_main_closed", allAssoc(RoleWaterMain, "valve", "closed"))
	set(slotSprinklerOn, "sprinkler_on", anyAssoc(RoleSprinkler, "switch", "on"))
	set(slotSprinklerOff, "sprinkler_off", allAssoc(RoleSprinkler, "switch", "off"))
	set(slotSoilDry, "soil_dry", numBelow("soilMoistureMeasurement", "soilMoisture", th.SoilLow))
	set(slotSoilWet, "soil_wet", numAbove("soilMoistureMeasurement", "soilMoisture", th.SoilHigh))
	set(slotHumidityHigh, "humidity_high", numAbove("relativeHumidityMeasurement", "humidity", th.HumidHigh))

	set(slotAwayDeviceOn, "away_device_on", anyAssoc(RoleAwayDevice, "switch", "on"))
	set(slotNightDeviceOn, "night_device_on", anyAssoc(RoleNightDevice, "switch", "on"))
	set(slotEntertainmentOn, "entertainment_on", anyAssoc(RoleEntertainment, "status", "playing"))
	set(slotShadeOpen, "shade_open", anyAssoc(RoleShade, "windowShade", "open"))
	set(slotNightLightOn, "night_light_on", anyAssoc(RoleNightLight, "switch", "on"))
	set(slotThermSpanBad, "thermostat_span_bad", thermostatSpanBad(plan.ByCapability("thermostat")))
	return atoms
}

// thermostatSpanBad is true when any thermostat's heating setpoint
// exceeds its cooling setpoint.
func thermostatSpanBad(thermostats []*model.DevInst) model.Atom {
	type span struct{ heat, cool model.AttrRef }
	var spans []span
	var reads []model.AttrRef
	for _, d := range thermostats {
		one := []*model.DevInst{d}
		h, c := model.NumRefs(one, "heatingSetpoint"), model.NumRefs(one, "coolingSetpoint")
		if len(h) == 1 && len(c) == 1 {
			spans = append(spans, span{heat: h[0], cool: c[0]})
			reads = append(reads, h[0], c[0])
		}
	}
	return model.Atom{Reads: reads, Holds: func(s *model.State) bool {
		for _, sp := range spans {
			if s.Raw(sp.heat) > s.Raw(sp.cool) {
				return true
			}
		}
		return false
	}}
}

func phys(id, category, desc, formula string, roles, caps []string) Property {
	return Property{
		ID: id, Category: category, Description: desc, Kind: Physical,
		LTL: formula, Roles: roles, Capabilities: caps,
	}
}

// physicalCatalog returns the 38 safe-physical-state properties of
// Table 4 (5 thermostat/AC/heater + 8 lock/door + 3 location mode + 14
// security/alarm + 3 water/sprinkler + 5 others).
func physicalCatalog() []Property {
	const (
		catTherm = "Thermostat, AC, and Heater"
		catLock  = "Lock and door control"
		catMode  = "Location mode"
		catSec   = "Security and alarming"
		catWater = "Water and sprinkler"
		catOther = "Others"
	)
	return []Property{
		// ---- Thermostat, AC, and Heater (5) ----
		phys("therm.heater-on-when-cold-at-home", catTherm,
			"A heater should not be off when the temperature is below the threshold and people are at home",
			"G !(anyone_home && temp_low && heater_off)",
			[]string{RoleHeater}, []string{"temperatureMeasurement", "presenceSensor"}),
		phys("therm.heater-not-on-when-hot", catTherm,
			"A heater is turned on when temperature is above a predefined threshold",
			"G !(temp_high && heater_on)",
			[]string{RoleHeater}, []string{"temperatureMeasurement"}),
		phys("therm.ac-not-on-when-cold", catTherm,
			"An AC is turned on when temperature is below a predefined threshold",
			"G !(temp_low && ac_on)",
			[]string{RoleAC}, []string{"temperatureMeasurement"}),
		phys("therm.ac-and-heater-both-on", catTherm,
			"An AC and a heater are both turned on",
			"G !(ac_on && heater_on)",
			[]string{RoleAC, RoleHeater}, nil),
		phys("therm.setpoint-span", catTherm,
			"A thermostat's heating setpoint must not exceed its cooling setpoint",
			"G !thermostat_span_bad",
			nil, []string{"thermostat"}),

		// ---- Lock and door control (8) ----
		phys("lock.main-door-when-away", catLock,
			"The main door should be locked when no one is at home",
			"G (anyone_home || main_door_locked)",
			[]string{RoleMainDoor}, []string{"presenceSensor"}),
		phys("lock.main-door-at-night", catLock,
			"The main door should be locked when people are sleeping at night",
			"G (!mode_night || main_door_locked)",
			[]string{RoleMainDoor}, nil),
		phys("lock.unlockable-during-fire", catLock,
			"The main door must not stay locked while smoke is detected and people are at home",
			"G !(smoke_detected && anyone_home && main_door_locked)",
			[]string{RoleMainDoor}, []string{"smokeDetector", "presenceSensor"}),
		phys("lock.garage-closed-when-away", catLock,
			"The garage door should be closed when no one is at home",
			"G (anyone_home || garage_closed)",
			[]string{RoleGarage}, []string{"presenceSensor"}),
		phys("lock.garage-closed-at-night", catLock,
			"The garage door should be closed at night",
			"G (!mode_night || garage_closed)",
			[]string{RoleGarage}, nil),
		phys("lock.all-locked-when-away", catLock,
			"Every lock should be locked when the location mode is Away",
			"G !(mode_away && any_lock_unlocked)",
			nil, []string{"lock"}),
		phys("lock.doors-closed-when-away", catLock,
			"Controlled doors should be closed when no one is at home",
			"G !(mode_away && any_door_open)",
			nil, []string{"doorControl"}),
		phys("lock.entry-closed-when-away", catLock,
			"The entry door contact should not be open when no one is at home",
			"G (anyone_home || !entry_contact_open)",
			[]string{RoleEntryContact}, []string{"presenceSensor"}),

		// ---- Location mode (3) ----
		phys("mode.away-when-no-one-home", catMode,
			"Location mode should be changed to Away when no one is at home",
			"G (anyone_home || mode_away)",
			nil, []string{"presenceSensor"}),
		phys("mode.not-away-when-home", catMode,
			"Location mode should not be Away while someone is at home",
			"G !(anyone_home && mode_away)",
			nil, []string{"presenceSensor"}),
		phys("mode.night-when-sleeping", catMode,
			"Location mode should be Night while people are sleeping",
			"G (!sleeping || mode_night)",
			nil, []string{"sleepSensor"}),

		// ---- Security and alarming (14) ----
		phys("sec.alarm-on-smoke", catSec,
			"An alarm should strobe/siren when detecting smoke",
			"G (!smoke_detected || alarm_active)",
			[]string{RoleAlarm}, []string{"smokeDetector"}),
		phys("sec.alarm-on-co", catSec,
			"An alarm should strobe/siren when detecting carbon monoxide",
			"G (!co_detected || alarm_active)",
			[]string{RoleAlarm}, []string{"carbonMonoxideDetector"}),
		phys("sec.alarm-on-intrusion-motion", catSec,
			"An alarm should be triggered when motion is detected while no one is at home",
			"G !(mode_away && motion_active && alarm_off)",
			[]string{RoleAlarm}, []string{"motionSensor"}),
		phys("sec.alarm-on-intrusion-contact", catSec,
			"An alarm should be triggered when the entry opens while no one is at home",
			"G !(mode_away && entry_contact_open && alarm_off)",
			[]string{RoleAlarm, RoleEntryContact}, nil),
		phys("sec.no-spurious-alarm", catSec,
			"Siren/strobe is activated when no intruder or hazard is detected",
			"G (alarm_off || smoke_detected || co_detected || leak_detected || motion_active || entry_contact_open || button_held)",
			[]string{RoleAlarm}, nil),
		phys("sec.armed-when-away", catSec,
			"The security system should be armed when the location mode is Away",
			"G (!mode_away || security_armed)",
			[]string{RoleSecuritySw}, nil),
		phys("sec.disarmed-when-home", catSec,
			"The siren should not sound while the mode is Home and someone is present",
			"G !(mode_home && anyone_home && alarm_active && !smoke_detected && !co_detected)",
			[]string{RoleAlarm}, []string{"presenceSensor"}),
		phys("sec.sprinkler-supply-during-fire", catSec,
			"The fire sprinkler valve must not be closed while smoke is detected",
			"G !(smoke_detected && fire_valve_closed)",
			[]string{RoleFireValve}, []string{"smokeDetector"}),
		phys("sec.camera-on-intrusion", catSec,
			"A camera should capture when motion is detected while no one is at home",
			"G !(mode_away && motion_active && !camera_capturing)",
			[]string{RoleCamera}, []string{"motionSensor"}),
		phys("sec.camera-privacy-at-home", catSec,
			"Cameras should not capture while the family is at home in Home mode",
			"G !(mode_home && anyone_home && camera_capturing)",
			[]string{RoleCamera}, []string{"presenceSensor"}),
		phys("sec.alarm-on-panic-button", catSec,
			"An alarm should be triggered when the panic button is held",
			"G (!button_held || alarm_active)",
			[]string{RoleAlarm}, []string{"button"}),
		phys("sec.heater-off-during-fire", catSec,
			"A heater should be switched off while smoke is detected",
			"G !(smoke_detected && heater_on)",
			[]string{RoleHeater}, []string{"smokeDetector"}),
		phys("sec.outlets-off-during-fire", catSec,
			"High-power away-off outlets should be off while smoke is detected",
			"G !(smoke_detected && away_device_on)",
			[]string{RoleAwayDevice}, []string{"smokeDetector"}),
		phys("sec.alarm-on-leak", catSec,
			"An alarm should be triggered when a water leak is detected",
			"G (!leak_detected || alarm_active)",
			[]string{RoleAlarm}, []string{"waterSensor"}),

		// ---- Water and sprinkler (3) ----
		phys("water.sprinkler-on-when-dry", catWater,
			"Soil moisture should be within a predefined range: the sprinkler runs when soil is dry",
			"G !(soil_dry && sprinkler_off)",
			[]string{RoleSprinkler}, []string{"soilMoistureMeasurement"}),
		phys("water.sprinkler-off-when-wet", catWater,
			"Soil moisture should be within a predefined range: the sprinkler stops when soil is wet",
			"G !(soil_wet && sprinkler_on)",
			[]string{RoleSprinkler}, []string{"soilMoistureMeasurement"}),
		phys("water.main-closed-on-leak", catWater,
			"The main water valve should be closed when a leak is detected",
			"G (!leak_detected || water_main_closed)",
			[]string{RoleWaterMain}, []string{"waterSensor"}),

		// ---- Others (5) ----
		phys("other.away-devices-off", catOther,
			"Some devices should not be turned on when no one is at home",
			"G (anyone_home || !away_device_on)",
			[]string{RoleAwayDevice}, []string{"presenceSensor"}),
		phys("other.night-devices-off", catOther,
			"Designated devices should be off during Night mode",
			"G !(mode_night && night_device_on)",
			[]string{RoleNightDevice}, nil),
		phys("other.entertainment-off-at-night", catOther,
			"Entertainment devices should not be playing during Night mode",
			"G !(mode_night && entertainment_on)",
			[]string{RoleEntertainment}, nil),
		phys("other.shades-closed-at-night", catOther,
			"Window shades should be closed during Night mode",
			"G !(mode_night && shade_open)",
			[]string{RoleShade}, nil),
		phys("other.water-main-open-when-home", catOther,
			"The main water valve should not be closed while people are at home with no leak",
			"G !(anyone_home && !leak_detected && water_main_closed)",
			[]string{RoleWaterMain}, []string{"presenceSensor"}),
	}
}
